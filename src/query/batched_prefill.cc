#include "src/query/batched_prefill.h"

namespace alaya {

Status RunPrefillJob(const SessionPrefillJob& job) {
  if (job.session == nullptr || job.fill == nullptr) {
    return Status::InvalidArgument("incomplete prefill job: null session or fill");
  }
  if (job.q_scratch == nullptr || job.k_scratch == nullptr ||
      job.v_scratch == nullptr) {
    return Status::InvalidArgument("incomplete prefill job: null scratch buffer");
  }
  if (job.count == 0) return Status::Ok();

  const ModelConfig& model = job.session->config();
  const size_t qdim = static_cast<size_t>(model.num_q_heads) * model.head_dim;
  const size_t kvdim = static_cast<size_t>(model.num_kv_heads) * model.head_dim;
  for (uint32_t layer = 0; layer < model.num_layers; ++layer) {
    for (size_t t = 0; t < job.count; ++t) {
      job.fill(job.first_token + t, layer, job.q_scratch + t * qdim,
               job.k_scratch + t * kvdim, job.v_scratch + t * kvdim);
    }
    ALAYA_RETURN_IF_ERROR(job.session->UpdateBatch(layer, job.count, job.q_scratch,
                                                   job.k_scratch, job.v_scratch));
  }
  return Status::Ok();
}

PrefillWave::~PrefillWave() { Wait(); }

void PrefillWave::Launch(const SessionPrefillJob& job, Status* status, ThreadPool* pool) {
  if (pool == nullptr) pool = &ThreadPool::Global();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
  }
  pool->Submit([this, job, status]() {
    Status s = RunPrefillJob(job);
    std::lock_guard<std::mutex> lock(mu_);
    if (status != nullptr) *status = std::move(s);
    --outstanding_;
    if (outstanding_ == 0) cv_.notify_all();
  });
}

void PrefillWave::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return outstanding_ == 0; });
}

bool PrefillWave::WaitFor(std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, timeout, [this] { return outstanding_ == 0; });
}

}  // namespace alaya
