#include "timing.hpp"

#include <algorithm>
#include <limits>

namespace fedca::suite {

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

SpanLog::Buffer& SpanLog::local() {
  // The log outlives every thread that records into it (function-local
  // static, buffers never freed), so the cached pointer cannot dangle.
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->tid = static_cast<std::uint32_t>(buffers_.size());
  }
  return *buffer;
}

void SpanLog::record(const Span& span) {
  Buffer& buffer = local();
  buffer.spans.push_back(span);
  buffer.spans.back().tid = buffer.tid;
}

std::vector<Span> SpanLog::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  std::stable_sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.tid != b.tid ? a.tid < b.tid : a.start_ns < b.start_ns;
  });
  return out;
}

std::uint64_t fnv1a(const nn::ModelState& state) {
  Fnv fnv;
  for (const tensor::Tensor& t : state.tensors) fnv.add_bytes(t.raw(), t.byte_size());
  return fnv.hash;
}

void record_span(const char* name, const char* parent, std::int64_t start_ns,
                 std::int64_t end_ns, std::int64_t round, std::int64_t client) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.round = round;
  span.client = client;
  SpanLog::global().record(span);
}

namespace {

// Forwards every hook to the client's real policy. Traced, it also turns
// the hook boundaries into spans; untraced, it only reports the engine's
// global state (once per run) so the final state can be fingerprinted.
class TimedPolicy final : public fl::ClientPolicy {
 public:
  void begin(TimedScheme* owner, fl::ClientPolicy* inner, std::size_t client, bool traced,
             std::int64_t start) {
    owner_ = owner;
    inner_ = inner;
    client_ = static_cast<std::int64_t>(client);
    traced_ = traced;
    client_start_ = start;
    last_ = start;
  }
  void compressor_ready(std::int64_t t) { last_ = t; }

  void on_round_start(const fl::RoundInfo& round, const nn::ModelState& global) override {
    owner_->saw_global(&global);
    if (!traced_) {
      inner_->on_round_start(round, global);
      return;
    }
    round_ = static_cast<std::int64_t>(round.round_index);
    const std::int64_t t = now_ns();
    record_span("materialize", "client", last_, t, round_, client_);
    inner_->on_round_start(round, global);
    last_ = now_ns();
    record_span("policy.round_start", "client", t, last_, round_, client_);
  }

  fl::IterationDecision after_iteration(const fl::IterationView& view) override {
    if (!traced_) return inner_->after_iteration(view);
    const std::int64_t t = now_ns();
    record_span("step", "client", last_, t, round_, client_);
    fl::IterationDecision decision = inner_->after_iteration(view);
    last_ = now_ns();
    record_span("policy.after_iteration", "client", t, last_, round_, client_);
    return decision;
  }

  std::vector<std::size_t> select_retransmissions(
      const nn::ModelState& final_update, const std::vector<fl::EagerRecord>& eager) override {
    if (!traced_) return inner_->select_retransmissions(final_update, eager);
    const std::int64_t t = now_ns();
    record_span("finalize", "client", last_, t, round_, client_);
    std::vector<std::size_t> layers = inner_->select_retransmissions(final_update, eager);
    last_ = now_ns();
    record_span("policy.retransmissions", "client", t, last_, round_, client_);
    return layers;
  }

  void on_round_end(const fl::RoundInfo& round) override {
    if (!traced_) {
      inner_->on_round_end(round);
      return;
    }
    const std::int64_t t = now_ns();
    record_span("upload", "client", last_, t, round_, client_);
    inner_->on_round_end(round);
    const std::int64_t end = now_ns();
    record_span("policy.round_end", "client", t, end, round_, client_);
    record_span("client", "train", client_start_, end, round_, client_);
    owner_->client_finished(end);
  }

 private:
  TimedScheme* owner_ = nullptr;
  fl::ClientPolicy* inner_ = nullptr;
  std::int64_t client_ = -1;
  std::int64_t round_ = -1;
  bool traced_ = false;
  std::int64_t client_start_ = 0;
  std::int64_t last_ = 0;
};

TimedPolicy& local_policy() {
  thread_local TimedPolicy policy;
  return policy;
}

}  // namespace

TimedScheme::TimedScheme(std::unique_ptr<fl::Scheme> inner, bool traced,
                         std::size_t final_round)
    : inner_(std::move(inner)), traced_(traced), final_round_(final_round) {}

void TimedScheme::bind(std::size_t num_clients, std::size_t nominal_iterations) {
  inner_->bind(num_clients, nominal_iterations);
  Scheme::bind(num_clients, nominal_iterations);
  stamps_.bind_ns = now_ns();
}

fl::RoundPlan TimedScheme::plan_round(std::size_t round_index) {
  const std::int64_t t = now_ns();
  if (traced_ && round_ >= 0) {
    record_span("eval", "round", observe_return_ns_, t, round_);
    record_span("round", "", stamps_.round_start_ns.back(), t, round_);
  }
  stamps_.round_start_ns.push_back(t);
  round_ = static_cast<std::int64_t>(round_index);
  fl::RoundPlan plan = inner_->plan_round(round_index);
  plan_return_ns_ = now_ns();
  if (traced_) record_span("plan", "round", t, plan_return_ns_, round_);
  first_client_ns_.store(std::numeric_limits<std::int64_t>::max(), std::memory_order_relaxed);
  last_client_ns_.store(0, std::memory_order_relaxed);
  return plan;
}

fl::ClientPolicy& TimedScheme::client_policy(std::size_t client_id) {
  fl::ClientPolicy& inner = inner_->client_policy(client_id);
  if (!traced_ && global_.load(std::memory_order_relaxed) != nullptr) return inner;
  const std::int64_t t = traced_ ? now_ns() : 0;
  if (traced_) client_started(t);
  TimedPolicy& policy = local_policy();
  policy.begin(this, &inner, client_id, traced_, t);
  return policy;
}

std::unique_ptr<fl::UpdateCompressor> TimedScheme::make_compressor(std::size_t client_id,
                                                                   std::size_t round_index) {
  std::unique_ptr<fl::UpdateCompressor> compressor =
      inner_->make_compressor(client_id, round_index);
  if (traced_) local_policy().compressor_ready(now_ns());
  return compressor;
}

void TimedScheme::client_started(std::int64_t t) {
  std::int64_t seen = first_client_ns_.load(std::memory_order_relaxed);
  while (t < seen &&
         !first_client_ns_.compare_exchange_weak(seen, t, std::memory_order_relaxed)) {
  }
}

void TimedScheme::client_finished(std::int64_t t) {
  std::int64_t seen = last_client_ns_.load(std::memory_order_relaxed);
  while (t > seen &&
         !last_client_ns_.compare_exchange_weak(seen, t, std::memory_order_relaxed)) {
  }
}

void TimedScheme::observe_round(const fl::RoundRecord& record) {
  const std::int64_t t = now_ns();
  if (traced_) {
    const std::int64_t first = first_client_ns_.load(std::memory_order_relaxed);
    const std::int64_t last = last_client_ns_.load(std::memory_order_relaxed);
    if (last == 0) {
      record_span("select", "round", plan_return_ns_, t, round_);
    } else {
      record_span("select", "round", plan_return_ns_, first, round_);
      record_span("train", "round", first, last, round_);
      record_span("server", "round", last, t, round_);
    }
  }
  stamps_.participants += record.clients.size();
  stamps_.offline += record.offline;
  inner_->observe_round(record);
  const nn::ModelState* global = global_.load(std::memory_order_relaxed);
  if (record.round_index == final_round_ && global != nullptr) {
    stamps_.state_fnv = fnv1a(*global);
  }
  observe_return_ns_ = now_ns();
  if (traced_) record_span("observe", "round", t, observe_return_ns_, round_);
}

void TimedScheme::finish(std::int64_t end_ns) {
  if (!traced_ || round_ < 0) return;
  record_span("eval", "round", observe_return_ns_, end_ns, round_);
  record_span("round", "", stamps_.round_start_ns.back(), end_ns, round_);
}

}  // namespace fedca::suite
