#include "src/core/context_serializer.h"

#include <cstring>

#include "src/common/string_util.h"

namespace alaya {

namespace {

// Manifest row layout. Every value occupies one full-width row; 8-byte values
// (doubles, uint64 counters) are memcpy'd across the row's first two float
// slots so they round-trip bit-exact — a float cast would corrupt byte
// counters past 2^24.
enum ManifestRow : uint32_t {
  kRowLength = 0,
  kRowNumLayers,
  kRowNumKvHeads,
  kRowHeadDim,
  kRowHasFine,
  kRowResidentDevice,
  kRowKvBytes,             // u64
  kRowIndexBytes,          // u64
  kRowKnnWallSeconds,      // f64
  kRowProjectWallSeconds,  // f64
  kRowModeledGpuSeconds,   // f64
  kRowModeledXferSeconds,  // f64
  kRowReportedSeconds,     // f64
  kRowStatsIndexBytes,     // u64
  kRowNumIndices,          // u64
  kRowTrainingQueries,     // u64
  kRowExtendedIndices,     // u64
  kRowReusedBaseNodes,     // u64
  kRowInsertedSuffix,      // u64
  kRowTokensBegin,
  // v3 manifests (written only for quantized KV) insert, BETWEEN the fixed
  // rows above and the tokens:
  //   kRowTokensBegin + 0: codec id (float)
  //   then 2 * num_layers * num_kv_heads param rows, Slot() order — for each
  //   (layer, head): keys {scale, zero_point} then vals {scale, zero_point}
  //   in the row's first two float slots;
  // tokens (and the trailer) shift down accordingly. The trailer magic names
  // the layout, so LoadManifest probes both candidate trailer positions to
  // detect the version — a v2 manifest needs no migration.
  // After the tokens, three trailer rows close the manifest:
  //   kRowTokensBegin + length + 0: magic   (u64 — format/version witness)
  //   kRowTokensBegin + length + 1: generation (u64 — persist stamp)
  //   kRowTokensBegin + length + 2: checksum (u64 — FNV-1a over the raw bytes
  //                                 of every preceding row, trailer excluded)
  // A torn write that loses any row also loses the trailer (rows append in
  // order), and a partial block that garbles earlier rows fails the checksum:
  // either way LoadManifest returns Corruption and warm start skips the
  // context instead of resurrecting a half-persisted one.
};

/// Bumped when the row layout changes; doubles as the torn-write witness (an
/// old-format or truncated manifest has no matching magic row where the
/// trailer should be). v2 is the pre-codec layout and still what fp32
/// contexts write; v3 adds the codec + params rows.
constexpr uint64_t kManifestMagic = 0x414C41594D463032ULL;    // "ALAYMF02"
constexpr uint64_t kManifestMagicV3 = 0x414C41594D463033ULL;  // "ALAYMF03"

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::string ContextSerializer::ManifestName(const std::string& prefix) {
  return prefix + "_manifest";
}

std::string ContextSerializer::HeadName(const std::string& prefix, uint32_t layer,
                                        uint32_t head, const char* what) {
  return StrFormat("%s_L%u_H%u_%s", prefix.c_str(), layer, head, what);
}

Status ContextSerializer::Persist(const Context& context, const std::string& prefix,
                                  uint64_t generation) {
  if (vfs_ == nullptr) return Status::FailedPrecondition("no vector file system");
  const ModelConfig& m = context.kv().config();

  // Payload first: the (large) per-head KV and adjacency files carry no
  // commit semantics of their own. A crash anywhere in this loop leaves
  // orphaned payload files and NO manifest — warm start never sees the
  // context, which is exactly the pre-crash truth (it was never durably
  // published).
  for (uint32_t layer = 0; layer < m.num_layers; ++layer) {
    for (uint32_t h = 0; h < m.num_kv_heads; ++h) {
      // Keys + the fine graph's adjacency share one file (§7.3 layout).
      const RoarGraph* fine = context.FineIndex(layer, h * m.GroupSize());
      ALAYA_RETURN_IF_ERROR(vfs_->PersistHead(HeadName(prefix, layer, h, "keys"),
                                              context.kv().Keys(layer, h),
                                              fine != nullptr ? &fine->graph()
                                                              : nullptr));
      ALAYA_RETURN_IF_ERROR(vfs_->PersistHead(HeadName(prefix, layer, h, "vals"),
                                              context.kv().Values(layer, h), nullptr));
    }
  }

  // Manifest last — the commit record. Scalars stored in full-width rows (the
  // VFS fixes one dim for all files; 8-byte values span the first two float
  // slots); every row's raw bytes fold into the checksum the trailer seals.
  ALAYA_ASSIGN_OR_RETURN(VectorFile * mf, vfs_->CreateFile(ManifestName(prefix)));
  if (mf->dim() < 2) {
    return Status::InvalidArgument("manifest rows need at least two float slots");
  }
  std::vector<float> row(mf->dim(), 0.f);
  uint64_t checksum = kFnvOffset;
  const size_t row_bytes = row.size() * sizeof(float);
  auto append = [&](bool hashed) -> Status {
    if (hashed) checksum = Fnv1a(checksum, row.data(), row_bytes);
    ALAYA_ASSIGN_OR_RETURN(uint32_t id, mf->AppendVector(row.data()));
    (void)id;
    return Status::Ok();
  };
  auto put = [&](float v) -> Status {
    std::fill(row.begin(), row.end(), 0.f);
    row[0] = v;
    return append(/*hashed=*/true);
  };
  auto put64 = [&](const void* v) -> Status {
    std::fill(row.begin(), row.end(), 0.f);
    std::memcpy(row.data(), v, 8);
    return append(/*hashed=*/true);
  };
  auto put64_trailer = [&](const void* v) -> Status {
    std::fill(row.begin(), row.end(), 0.f);
    std::memcpy(row.data(), v, 8);
    return append(/*hashed=*/false);
  };
  const IndexBuildStats& s = context.build_stats();
  const uint64_t kv_bytes = context.kv().DeployedBytes();
  const uint64_t index_bytes = context.IndexBytes();
  const uint64_t stat_u64[] = {
      s.index_bytes,           s.num_indices,     s.training_queries,
      s.extended_indices,      s.reused_base_nodes,
      s.inserted_suffix_nodes,
  };
  const double stat_f64[] = {s.knn_wall_seconds, s.project_wall_seconds,
                             s.modeled_gpu_seconds, s.modeled_transfer_seconds,
                             s.reported_seconds};
  ALAYA_RETURN_IF_ERROR(put(static_cast<float>(context.length())));
  ALAYA_RETURN_IF_ERROR(put(static_cast<float>(m.num_layers)));
  ALAYA_RETURN_IF_ERROR(put(static_cast<float>(m.num_kv_heads)));
  ALAYA_RETURN_IF_ERROR(put(static_cast<float>(m.head_dim)));
  ALAYA_RETURN_IF_ERROR(put(context.HasFineIndices() ? 1.f : 0.f));
  ALAYA_RETURN_IF_ERROR(put(static_cast<float>(context.resident_device())));
  ALAYA_RETURN_IF_ERROR(put64(&kv_bytes));
  ALAYA_RETURN_IF_ERROR(put64(&index_bytes));
  for (double d : stat_f64) ALAYA_RETURN_IF_ERROR(put64(&d));
  for (uint64_t u : stat_u64) ALAYA_RETURN_IF_ERROR(put64(&u));
  // Quantized KV: v3 rows — codec id, then per-(layer, head) keys/vals affine
  // params. fp32 contexts skip these and stay byte-identical v2 manifests.
  const VectorCodec kv_codec = context.kv().codec();
  if (kv_codec != VectorCodec::kFp32) {
    auto put2 = [&](float a, float b) -> Status {
      std::fill(row.begin(), row.end(), 0.f);
      row[0] = a;
      row[1] = b;
      return append(/*hashed=*/true);
    };
    ALAYA_RETURN_IF_ERROR(put(static_cast<float>(static_cast<uint8_t>(kv_codec))));
    for (uint32_t layer = 0; layer < m.num_layers; ++layer) {
      for (uint32_t h = 0; h < m.num_kv_heads; ++h) {
        const CodecParams& kp = context.kv().KeyParams(layer, h);
        const CodecParams& vp = context.kv().ValParams(layer, h);
        ALAYA_RETURN_IF_ERROR(put2(kp.scale, kp.zero_point));
        ALAYA_RETURN_IF_ERROR(put2(vp.scale, vp.zero_point));
      }
    }
  }
  // Token rows: the float form in slot 0 (what older readers parse) and the
  // id's exact bits in slot 1 — a float holds integers exactly only below
  // 2^24, and synthetic stored ids live in [2^30, 2^31).
  for (int32_t t : context.tokens()) {
    std::fill(row.begin(), row.end(), 0.f);
    row[0] = static_cast<float>(t);
    std::memcpy(&row[1], &t, sizeof(t));
    ALAYA_RETURN_IF_ERROR(append(/*hashed=*/true));
  }
  // Trailer: magic, generation, then the checksum over everything above. The
  // trailer rows are excluded from the hash (the checksum cannot cover
  // itself); the magic row doubles as the truncation witness and names the
  // layout version.
  const uint64_t magic =
      kv_codec != VectorCodec::kFp32 ? kManifestMagicV3 : kManifestMagic;
  ALAYA_RETURN_IF_ERROR(put64_trailer(&magic));
  ALAYA_RETURN_IF_ERROR(put64_trailer(&generation));
  ALAYA_RETURN_IF_ERROR(put64_trailer(&checksum));
  return mf->Flush();
}

Result<ContextManifest> ContextSerializer::LoadManifest(const std::string& prefix,
                                                        const ModelConfig& model) {
  Result<ContextManifest> r = LoadManifestImpl(prefix, model);
  if (!r.ok() && r.status().IsOutOfRange()) {
    // The file (or its row count) ends before the manifest's own geometry
    // says it should — a physically truncated write. Same disposition as a
    // failed trailer: Corruption, so warm start skips rather than errors.
    return Status::Corruption("manifest ends early (torn write?): " +
                              r.status().ToString());
  }
  return r;
}

Result<ContextManifest> ContextSerializer::LoadManifestImpl(
    const std::string& prefix, const ModelConfig& model) {
  if (vfs_ == nullptr) return Status::FailedPrecondition("no vector file system");
  VectorFile* mf = vfs_->GetFile(ManifestName(prefix));
  if (mf == nullptr) {
    ALAYA_ASSIGN_OR_RETURN(mf, vfs_->OpenFile(ManifestName(prefix)));
  }
  if (mf->dim() < 2) return Status::Corruption("manifest rows too narrow");
  std::vector<float> row(mf->dim());
  // Rows are read exactly once, in file order, so the running FNV-1a here
  // mirrors the one Persist folded row by row; the trailer reads below use
  // the unhashed variant (the stored checksum cannot cover itself).
  uint64_t checksum = kFnvOffset;
  const size_t row_bytes = row.size() * sizeof(float);
  auto get = [&](uint32_t idx) -> Result<float> {
    ALAYA_RETURN_IF_ERROR(mf->ReadVector(idx, row.data()));
    checksum = Fnv1a(checksum, row.data(), row_bytes);
    return row[0];
  };
  auto get64 = [&](uint32_t idx, void* out) -> Status {
    ALAYA_RETURN_IF_ERROR(mf->ReadVector(idx, row.data()));
    checksum = Fnv1a(checksum, row.data(), row_bytes);
    std::memcpy(out, row.data(), 8);
    return Status::Ok();
  };
  auto get64_trailer = [&](uint32_t idx, void* out) -> Status {
    ALAYA_RETURN_IF_ERROR(mf->ReadVector(idx, row.data()));
    std::memcpy(out, row.data(), 8);
    return Status::Ok();
  };

  ContextManifest man;
  ALAYA_ASSIGN_OR_RETURN(float f_tokens, get(kRowLength));
  ALAYA_ASSIGN_OR_RETURN(float f_layers, get(kRowNumLayers));
  ALAYA_ASSIGN_OR_RETURN(float f_heads, get(kRowNumKvHeads));
  ALAYA_ASSIGN_OR_RETURN(float f_dim, get(kRowHeadDim));
  ALAYA_ASSIGN_OR_RETURN(float f_fine, get(kRowHasFine));
  ALAYA_ASSIGN_OR_RETURN(float f_device, get(kRowResidentDevice));
  if (!(f_tokens >= 0.f && f_tokens <= 1e9f)) {
    return Status::Corruption("manifest length row is garbage");
  }
  man.length = static_cast<size_t>(f_tokens);
  man.num_layers = static_cast<uint32_t>(f_layers);
  man.num_kv_heads = static_cast<uint32_t>(f_heads);
  man.head_dim = static_cast<uint32_t>(f_dim);
  man.has_fine = f_fine > 0.5f;
  man.resident_device = static_cast<int>(f_device);
  if (man.num_layers != model.num_layers ||
      man.num_kv_heads != model.num_kv_heads || man.head_dim != model.head_dim) {
    return Status::Corruption("persisted geometry does not match the model config");
  }
  ALAYA_RETURN_IF_ERROR(get64(kRowKvBytes, &man.kv_bytes));
  ALAYA_RETURN_IF_ERROR(get64(kRowIndexBytes, &man.index_bytes));
  IndexBuildStats& s = man.build_stats;
  ALAYA_RETURN_IF_ERROR(get64(kRowKnnWallSeconds, &s.knn_wall_seconds));
  ALAYA_RETURN_IF_ERROR(get64(kRowProjectWallSeconds, &s.project_wall_seconds));
  ALAYA_RETURN_IF_ERROR(get64(kRowModeledGpuSeconds, &s.modeled_gpu_seconds));
  ALAYA_RETURN_IF_ERROR(get64(kRowModeledXferSeconds, &s.modeled_transfer_seconds));
  ALAYA_RETURN_IF_ERROR(get64(kRowReportedSeconds, &s.reported_seconds));
  ALAYA_RETURN_IF_ERROR(get64(kRowStatsIndexBytes, &s.index_bytes));
  uint64_t u = 0;
  ALAYA_RETURN_IF_ERROR(get64(kRowNumIndices, &u));
  s.num_indices = static_cast<size_t>(u);
  ALAYA_RETURN_IF_ERROR(get64(kRowTrainingQueries, &u));
  s.training_queries = static_cast<size_t>(u);
  ALAYA_RETURN_IF_ERROR(get64(kRowExtendedIndices, &u));
  s.extended_indices = static_cast<size_t>(u);
  ALAYA_RETURN_IF_ERROR(get64(kRowReusedBaseNodes, &u));
  s.reused_base_nodes = static_cast<size_t>(u);
  ALAYA_RETURN_IF_ERROR(get64(kRowInsertedSuffix, &u));
  s.inserted_suffix_nodes = static_cast<size_t>(u);

  // Version detection: the trailer magic names the layout, so probe both
  // candidate trailer positions with unhashed reads (a failed probe — row out
  // of range — just means "not that version"). v2 puts the trailer right
  // after the tokens; v3 first inserts the codec row and 2 * layers * heads
  // param rows.
  const size_t slots =
      static_cast<size_t>(man.num_layers) * man.num_kv_heads;
  const size_t v2_trailer = kRowTokensBegin + man.length;
  const size_t v3_trailer = kRowTokensBegin + 1 + 2 * slots + man.length;
  bool is_v3 = false;
  uint64_t probe = 0;
  if (get64_trailer(static_cast<uint32_t>(v2_trailer), &probe).ok() &&
      probe == kManifestMagic) {
    is_v3 = false;
  } else if (get64_trailer(static_cast<uint32_t>(v3_trailer), &probe).ok() &&
             probe == kManifestMagicV3) {
    is_v3 = true;
  } else {
    return Status::Corruption("manifest trailer missing or wrong magic (torn write?)");
  }

  // Bound the token count by the file's actual rows BEFORE allocating: a
  // garbled length row must fail cleanly, not drive a huge resize.
  const size_t tokens_begin = is_v3 ? kRowTokensBegin + 1 + 2 * slots
                                    : static_cast<size_t>(kRowTokensBegin);
  if (man.length + tokens_begin + 3 > static_cast<size_t>(mf->num_vectors())) {
    return Status::Corruption("manifest token count exceeds stored rows");
  }

  if (is_v3) {
    // Hashed reads continue in file order: codec row, then the param rows.
    ALAYA_ASSIGN_OR_RETURN(float f_codec, get(kRowTokensBegin));
    const auto codec_id = static_cast<uint32_t>(f_codec);
    if (codec_id > static_cast<uint32_t>(VectorCodec::kInt8) ||
        codec_id == static_cast<uint32_t>(VectorCodec::kFp32)) {
      return Status::Corruption("v3 manifest carries an unknown or fp32 codec id");
    }
    man.kv_codec = static_cast<VectorCodec>(codec_id);
    man.key_params.resize(slots);
    man.val_params.resize(slots);
    uint32_t idx = kRowTokensBegin + 1;
    auto get2 = [&](uint32_t i, CodecParams* p) -> Status {
      ALAYA_RETURN_IF_ERROR(mf->ReadVector(i, row.data()));
      checksum = Fnv1a(checksum, row.data(), row_bytes);
      p->scale = row[0];
      p->zero_point = row[1];
      return Status::Ok();
    };
    for (size_t s2 = 0; s2 < slots; ++s2) {
      ALAYA_RETURN_IF_ERROR(get2(idx++, &man.key_params[s2]));
      ALAYA_RETURN_IF_ERROR(get2(idx++, &man.val_params[s2]));
    }
  }

  man.tokens.resize(man.length);
  for (size_t t = 0; t < man.length; ++t) {
    ALAYA_ASSIGN_OR_RETURN(float v, get(static_cast<uint32_t>(tokens_begin + t)));
    int32_t exact = 0;
    std::memcpy(&exact, &row[1], sizeof(exact));
    // Manifests written before ids were stored exactly leave slot 1 zero.
    man.tokens[t] = exact != 0 ? exact : static_cast<int32_t>(v);
  }

  // Trailer: a manifest torn mid-write is missing rows (the reads fail), an
  // old-format or foreign file has no magic where the trailer belongs, and a
  // garbled-in-place one fails the checksum. All three are Corruption — the
  // tiered store's warm start skips the context rather than resurrecting a
  // half-persisted one. (The magic itself was verified by the version probe.)
  const uint32_t trailer = static_cast<uint32_t>(tokens_begin + man.length);
  ALAYA_RETURN_IF_ERROR(get64_trailer(trailer + 1, &man.generation));
  uint64_t stored_checksum = 0;
  ALAYA_RETURN_IF_ERROR(get64_trailer(trailer + 2, &stored_checksum));
  if (stored_checksum != checksum) {
    return Status::Corruption("manifest checksum mismatch (torn or corrupt write)");
  }
  return man;
}

Result<std::unique_ptr<Context>> ContextSerializer::Load(
    const std::string& prefix, uint64_t id, const ModelConfig& model,
    const RoarGraphOptions& graph_options) {
  ALAYA_ASSIGN_OR_RETURN(ContextManifest man, LoadManifest(prefix, model));
  const size_t n_tokens = man.length;

  auto kv = std::make_unique<KvCache>(model);
  std::vector<AdjacencyGraph> loaded_graphs;
  for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
    // Load each head, then interleave into the token-major KvCache layout.
    std::vector<VectorSet> keys(model.num_kv_heads), vals(model.num_kv_heads);
    std::vector<AdjacencyGraph> graphs(model.num_kv_heads);
    for (uint32_t h = 0; h < model.num_kv_heads; ++h) {
      ALAYA_RETURN_IF_ERROR(vfs_->LoadHead(HeadName(prefix, layer, h, "keys"),
                                           &keys[h], &graphs[h]));
      ALAYA_RETURN_IF_ERROR(
          vfs_->LoadHead(HeadName(prefix, layer, h, "vals"), &vals[h], nullptr));
      if (keys[h].size() != n_tokens || vals[h].size() != n_tokens) {
        return Status::Corruption("head vector count does not match the manifest");
      }
    }
    std::vector<float> krow(static_cast<size_t>(model.num_kv_heads) * model.head_dim);
    std::vector<float> vrow(krow.size());
    for (size_t t = 0; t < n_tokens; ++t) {
      for (uint32_t h = 0; h < model.num_kv_heads; ++h) {
        std::memcpy(krow.data() + static_cast<size_t>(h) * model.head_dim,
                    keys[h].Vec(static_cast<uint32_t>(t)),
                    model.head_dim * sizeof(float));
        std::memcpy(vrow.data() + static_cast<size_t>(h) * model.head_dim,
                    vals[h].Vec(static_cast<uint32_t>(t)),
                    model.head_dim * sizeof(float));
      }
      kv->AppendToken(layer, krow.data(), vrow.data());
    }
    for (uint32_t h = 0; h < model.num_kv_heads; ++h) {
      loaded_graphs.push_back(std::move(graphs[h]));
    }
  }

  if (man.kv_codec != VectorCodec::kFp32) {
    // The payload floats are already on the codec's grid (persisted verbatim);
    // re-attach the codec id + params so DeployedBytes and any re-persist see
    // exactly the state the original process had.
    kv->SetCodecState(man.kv_codec, man.key_params, man.val_params);
  }

  auto context = std::make_unique<Context>(id, std::move(man.tokens), std::move(kv));
  if (man.has_fine) {
    ALAYA_RETURN_IF_ERROR(
        context->RestoreFineIndices(graph_options, std::move(loaded_graphs)));
  }
  // Carry the manifest's affinity and build accounting over: the warm-started
  // context is placed where it was last hot, and eviction keeps modeling its
  // (original) rebuild cost rather than seeing zero.
  context->set_resident_device(man.resident_device);
  context->set_build_stats(man.build_stats);
  return context;
}

}  // namespace alaya
