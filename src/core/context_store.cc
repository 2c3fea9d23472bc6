#include "src/core/context_store.h"

#include <algorithm>
#include <utility>

#include "src/common/timer.h"

namespace alaya {

namespace {

/// Total length of the union of [begin, end) spans.
double UnionSeconds(std::vector<std::pair<double, double>> spans) {
  std::sort(spans.begin(), spans.end());
  double total = 0, covered_to = 0;
  for (auto [begin, end] : spans) {
    begin = std::max(begin, covered_to);
    if (end <= begin) continue;
    total += end - begin;
    covered_to = end;
  }
  return total;
}

/// Folds the stats of layers built concurrently. `layer_end[l]` is when layer
/// l's build returned, on a clock started before any layer. Each layer ran
/// its stage (i) and then its projection as back-to-back spans ending there,
/// so those spans are recovered from its wall fields; the folded wall fields
/// are then the union of the layers' stage (i) spans and the further union of
/// their projection spans (see IndexBuildStats).
IndexBuildStats FoldConcurrentLayers(const std::vector<IndexBuildStats>& layers,
                                     const std::vector<double>& layer_end,
                                     bool gpu_knn) {
  IndexBuildStats total;
  std::vector<std::pair<double, double>> knn, all;
  for (size_t l = 0; l < layers.size(); ++l) {
    total.Accumulate(layers[l]);
    const double project_begin = layer_end[l] - layers[l].project_wall_seconds;
    const double knn_begin = project_begin - layers[l].knn_wall_seconds;
    knn.emplace_back(knn_begin, project_begin);
    all.emplace_back(knn_begin, layer_end[l]);
  }
  const double knn_wall = UnionSeconds(knn);
  const double project_wall = UnionSeconds(all) - knn_wall;
  // Each layer's reported_seconds counted its own host stage walls; replace
  // their sums with the folded walls.
  total.reported_seconds += project_wall - total.project_wall_seconds;
  if (!gpu_knn) total.reported_seconds += knn_wall - total.knn_wall_seconds;
  total.knn_wall_seconds = knn_wall;
  total.project_wall_seconds = project_wall;
  return total;
}

}  // namespace

Status Context::BuildFineIndices(const IndexBuildOptions& options,
                                 const QuerySamples* queries,
                                 IndexBuildStats* total_stats,
                                 const Context* base, size_t base_prefix) {
  const ModelConfig& cfg = kv_->config();
  fine_.clear();
  fine_shared_ = options.share_gqa_group;
  fine_restored_ = false;

  // Extend-from-base: reuse the base context's per-head graphs for the shared
  // prefix and insert only the suffix vectors. Sound whenever the first
  // base_prefix tokens agree and the index layouts match: a full reuse
  // (base_prefix == base->length()) adopts the base adjacency verbatim, a
  // PARTIAL reuse (base_prefix < base->length()) adopts it with the base's
  // out-of-prefix edges dropped (RoarGraph::ExtendFromBase) instead of a
  // scratch rebuild. Layout mismatches fall back to the scratch build below.
  const bool can_extend =
      base != nullptr && base != this && base->HasFineIndices() &&
      base->fine_shared_ && options.share_gqa_group && base_prefix > 0 &&
      base_prefix <= base->length() && base_prefix <= kv_->NumTokens() &&
      base->fine_.size() ==
          static_cast<size_t>(cfg.num_layers) * cfg.num_kv_heads;

  // Keys trained on themselves when no prefill queries were recorded.
  std::unique_ptr<QuerySamples> self_train;
  if (!can_extend && queries == nullptr) {
    self_train = std::make_unique<QuerySamples>(cfg);
    for (uint32_t layer = 0; layer < cfg.num_layers; ++layer) {
      for (uint32_t h = 0; h < cfg.num_q_heads; ++h) {
        const uint32_t kv_head = cfg.KvHeadForQuery(h);
        VectorSetView keys = kv_->Keys(layer, kv_head);
        VectorSet& dst = self_train->Mutable(layer, h);
        dst.AppendBatch(keys.data, keys.n);
      }
    }
    queries = self_train.get();
  }

  // Layers are independent (each samples its training queries from its own
  // Rng(options.seed)), so they build concurrently on the index-build pool;
  // the CPU baseline builds them one after another.
  const size_t num_layers = cfg.num_layers;
  std::vector<std::vector<std::unique_ptr<RoarGraph>>> layer_indices(num_layers);
  std::vector<IndexBuildStats> layer_stats(num_layers);
  std::vector<Status> statuses(num_layers, Status::Ok());
  std::vector<double> layer_end(num_layers, 0.0);
  WallTimer clock;
  ForEachBuildUnit(options, num_layers, [&](size_t l) {
    const uint32_t layer = static_cast<uint32_t>(l);
    std::vector<VectorSetView> head_keys;
    for (uint32_t h = 0; h < cfg.num_kv_heads; ++h) {
      head_keys.push_back(kv_->Keys(layer, h));
    }
    if (can_extend) {
      std::vector<const RoarGraph*> base_indices;
      for (uint32_t h = 0; h < cfg.num_kv_heads; ++h) {
        base_indices.push_back(base->fine_[l * cfg.num_kv_heads + h].get());
      }
      statuses[l] = ExtendLayerIndices(head_keys, base_indices, base_prefix, options,
                                       &layer_indices[l], &layer_stats[l]);
    } else {
      std::vector<VectorSetView> head_queries;
      for (uint32_t h = 0; h < cfg.num_q_heads; ++h) {
        head_queries.push_back(queries->View(layer, h));
      }
      statuses[l] = BuildLayerIndices(head_keys, head_queries, cfg.GroupSize(), options,
                                      &layer_indices[l], &layer_stats[l]);
    }
    layer_end[l] = clock.ElapsedSeconds();
  });
  for (size_t l = 0; l < num_layers; ++l) {
    ALAYA_RETURN_IF_ERROR(statuses[l]);
    for (auto& idx : layer_indices[l]) fine_.push_back(std::move(idx));
  }
  build_stats_ = FoldConcurrentLayers(layer_stats, layer_end, options.use_sim_gpu_knn);
  if (total_stats != nullptr) *total_stats = build_stats_;
  return Status::Ok();
}

Status Context::RestoreFineIndices(const RoarGraphOptions& options,
                                   std::vector<AdjacencyGraph>&& graphs) {
  const ModelConfig& cfg = kv_->config();
  const size_t expected = static_cast<size_t>(cfg.num_layers) * cfg.num_kv_heads;
  if (graphs.size() != expected) {
    return Status::InvalidArgument("graph count does not match layers * kv_heads");
  }
  fine_.clear();
  fine_shared_ = true;
  for (uint32_t layer = 0; layer < cfg.num_layers; ++layer) {
    for (uint32_t h = 0; h < cfg.num_kv_heads; ++h) {
      auto index = std::make_unique<RoarGraph>(kv_->Keys(layer, h), options);
      ALAYA_RETURN_IF_ERROR(index->AdoptGraph(
          std::move(graphs[static_cast<size_t>(layer) * cfg.num_kv_heads + h])));
      fine_.push_back(std::move(index));
    }
  }
  fine_restored_ = true;
  return Status::Ok();
}

Status Context::BuildCoarseIndices(const CoarseIndexOptions& options) {
  const ModelConfig& cfg = kv_->config();
  coarse_.clear();
  for (uint32_t layer = 0; layer < cfg.num_layers; ++layer) {
    for (uint32_t h = 0; h < cfg.num_kv_heads; ++h) {
      coarse_.push_back(std::make_unique<CoarseIndex>(kv_->Keys(layer, h), options));
    }
  }
  return Status::Ok();
}

const RoarGraph* Context::FineIndex(uint32_t layer, uint32_t q_head) const {
  if (fine_.empty()) return nullptr;
  const ModelConfig& cfg = kv_->config();
  const size_t per_layer = fine_shared_ ? cfg.num_kv_heads : cfg.num_q_heads;
  const size_t slot = fine_shared_ ? cfg.KvHeadForQuery(q_head) : q_head;
  const size_t idx = static_cast<size_t>(layer) * per_layer + slot;
  return idx < fine_.size() ? fine_[idx].get() : nullptr;
}

const CoarseIndex* Context::CoarseIdx(uint32_t layer, uint32_t kv_head) const {
  if (coarse_.empty()) return nullptr;
  const ModelConfig& cfg = kv_->config();
  const size_t idx = static_cast<size_t>(layer) * cfg.num_kv_heads + kv_head;
  return idx < coarse_.size() ? coarse_[idx].get() : nullptr;
}

uint64_t Context::IndexBytes() const {
  uint64_t b = 0;
  for (const auto& f : fine_) b += f->MemoryBytes();
  for (const auto& c : coarse_) b += c->MemoryBytes();
  return b;
}

void ContextStore::EmplaceResidentLocked(uint64_t id,
                                         std::shared_ptr<Context> context) {
  Entry entry;
  entry.tokens = context->tokens();
  entry.resident_device = context->resident_device();
  entry.kv_bytes = context->kv().DeployedBytes();
  entry.index_bytes = context->IndexBytes();
  entry.context = std::move(context);
  resident_kv_bytes_ += entry.kv_bytes;
  resident_index_bytes_ += entry.index_bytes;
  prefix_index_.Insert(id, entry.tokens);
  contexts_[id] = std::move(entry);
}

uint64_t ContextStore::Add(std::unique_ptr<Context> context) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  uint64_t id = context->id() != 0 ? context->id() : next_id_;
  // A preset id (the serializer-restore path) must not collide with a pending
  // reservation: the later Publish would silently overwrite this context.
  // Treat such ids as taken and allocate a fresh one instead.
  if (pending_.count(id) > 0) id = next_id_;
  context->set_id(id);
  next_id_ = std::max(next_id_, id + 1);
  // A preset id may also overwrite an already-published context (restore into
  // a populated store); the displaced sequence must leave the prefix index —
  // and the incremental totals — or lookups would chase a dead id.
  if (auto it = contexts_.find(id); it != contexts_.end()) {
    prefix_index_.Erase(id, it->second.tokens);
    resident_kv_bytes_ -= it->second.context ? it->second.kv_bytes : 0;
    resident_index_bytes_ -= it->second.context ? it->second.index_bytes : 0;
    contexts_.erase(it);
  }
  EmplaceResidentLocked(id, std::shared_ptr<Context>(std::move(context)));
  return id;
}

uint64_t ContextStore::ReservePending() {
  std::unique_lock<std::shared_mutex> lk(mu_);
  const uint64_t id = next_id_++;
  pending_.insert(id);
  return id;
}

Status ContextStore::Publish(uint64_t id, std::unique_ptr<Context> context) {
  if (context == nullptr) return Status::InvalidArgument("null context");
  std::unique_lock<std::shared_mutex> lk(mu_);
  if (pending_.erase(id) == 0) {
    return Status::FailedPrecondition("context id was not reserved as pending");
  }
  context->set_id(id);
  EmplaceResidentLocked(id, std::shared_ptr<Context>(std::move(context)));
  return Status::Ok();
}

bool ContextStore::AbortPending(uint64_t id) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  return pending_.erase(id) > 0;
}

size_t ContextStore::pending() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return pending_.size();
}

Context* ContextStore::FindUnsafeForTest(uint64_t id) {
  std::shared_lock<std::shared_mutex> lk(mu_);
  auto it = contexts_.find(id);
  return it == contexts_.end() ? nullptr : it->second.context.get();
}

const Context* ContextStore::FindUnsafeForTest(uint64_t id) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  auto it = contexts_.find(id);
  return it == contexts_.end() ? nullptr : it->second.context.get();
}

std::shared_ptr<Context> ContextStore::FindShared(uint64_t id) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  auto it = contexts_.find(id);
  return it == contexts_.end() ? nullptr : it->second.context;
}

std::shared_ptr<Context> ContextStore::DetachForSpill(uint64_t id) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  auto it = contexts_.find(id);
  if (it == contexts_.end() || it->second.context == nullptr) return nullptr;
  Entry& entry = it->second;
  // Freeze the affinity the context had at spill time: probes keep answering
  // from this snapshot while the payload is on disk.
  entry.resident_device = entry.context->resident_device();
  resident_kv_bytes_ -= entry.kv_bytes;
  resident_index_bytes_ -= entry.index_bytes;
  return std::move(entry.context);
}

Status ContextStore::RestoreSpilled(uint64_t id, std::shared_ptr<Context> context) {
  if (context == nullptr) return Status::InvalidArgument("null context");
  std::unique_lock<std::shared_mutex> lk(mu_);
  auto it = contexts_.find(id);
  if (it == contexts_.end()) {
    return Status::NotFound("no spilled entry for id");
  }
  Entry& entry = it->second;
  if (entry.context != nullptr) {
    return Status::Aborted("context is already resident");
  }
  if (context->tokens() != entry.tokens) {
    return Status::InvalidArgument("restored tokens do not match spilled entry");
  }
  context->set_id(id);
  context->set_resident_device(entry.resident_device);
  // Payload bytes may legitimately differ from the spill-time snapshot (e.g.
  // indices restored with different options); re-measure for the totals.
  entry.kv_bytes = context->kv().DeployedBytes();
  entry.index_bytes = context->IndexBytes();
  resident_kv_bytes_ += entry.kv_bytes;
  resident_index_bytes_ += entry.index_bytes;
  entry.context = std::move(context);
  return Status::Ok();
}

Status ContextStore::AddSpilled(uint64_t id, std::vector<int32_t> tokens,
                                int resident_device, uint64_t kv_bytes,
                                uint64_t index_bytes) {
  if (id == 0) return Status::InvalidArgument("spilled id must be nonzero");
  std::unique_lock<std::shared_mutex> lk(mu_);
  if (contexts_.count(id) > 0 || pending_.count(id) > 0) {
    return Status::FailedPrecondition("context id already live");
  }
  next_id_ = std::max(next_id_, id + 1);
  Entry entry;
  entry.tokens = std::move(tokens);
  entry.resident_device = resident_device;
  entry.kv_bytes = kv_bytes;
  entry.index_bytes = index_bytes;
  prefix_index_.Insert(id, entry.tokens);
  contexts_[id] = std::move(entry);
  return Status::Ok();
}

bool ContextStore::IsSpilled(uint64_t id) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  auto it = contexts_.find(id);
  return it != contexts_.end() && it->second.context == nullptr;
}

ContextStore::PrefixMatch ContextStore::BestPrefixMatch(
    std::span<const int32_t> tokens) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  PrefixMatch best;
  const TokenTrie::Best hit = prefix_index_.BestPrefix(tokens);
  if (hit.matched == 0) return best;
  auto it = contexts_.find(hit.id);
  if (it == contexts_.end()) return best;  // Unreachable while coherent.
  best.matched = hit.matched;
  best.id = hit.id;
  best.length = it->second.tokens.size();
  best.spilled = it->second.context == nullptr;
  best.context = it->second.context.get();
  best.ref = it->second.context;
  return best;
}

ContextStore::PrefixProbe ContextStore::BestPrefixProbe(
    std::span<const int32_t> tokens) const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  PrefixProbe out;
  const TokenTrie::Best hit = prefix_index_.BestPrefix(tokens);
  if (hit.matched == 0) return out;
  auto it = contexts_.find(hit.id);
  if (it == contexts_.end()) return out;  // Unreachable while coherent.
  out.matched = hit.matched;
  out.context_id = hit.id;
  out.spilled = it->second.context == nullptr;
  out.device = out.spilled ? it->second.resident_device
                           : it->second.context->resident_device();
  return out;
}

bool ContextStore::Remove(uint64_t id) {
  std::unique_lock<std::shared_mutex> lk(mu_);
  auto it = contexts_.find(id);
  if (it == contexts_.end()) return false;
  prefix_index_.Erase(id, it->second.tokens);
  if (it->second.context != nullptr) {
    resident_kv_bytes_ -= it->second.kv_bytes;
    resident_index_bytes_ -= it->second.index_bytes;
  }
  contexts_.erase(it);
  return true;
}

size_t ContextStore::PrefixIndexNodes() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return prefix_index_.node_count();
}

size_t ContextStore::size() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return contexts_.size();
}

size_t ContextStore::resident() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  size_t n = 0;
  for (const auto& [_, entry] : contexts_) n += entry.context != nullptr;
  return n;
}

size_t ContextStore::spilled() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  size_t n = 0;
  for (const auto& [_, entry] : contexts_) n += entry.context == nullptr;
  return n;
}

std::vector<uint64_t> ContextStore::Ids() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  std::vector<uint64_t> ids;
  ids.reserve(contexts_.size());
  for (const auto& [id, _] : contexts_) ids.push_back(id);
  return ids;
}

std::vector<uint64_t> ContextStore::SpilledIds() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  std::vector<uint64_t> ids;
  for (const auto& [id, entry] : contexts_) {
    if (entry.context == nullptr) ids.push_back(id);
  }
  return ids;
}

uint64_t ContextStore::TotalKvBytes() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return resident_kv_bytes_;
}

uint64_t ContextStore::TotalIndexBytes() const {
  std::shared_lock<std::shared_mutex> lk(mu_);
  return resident_index_bytes_;
}

}  // namespace alaya
