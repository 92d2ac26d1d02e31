#include "obs/trace_buffer.h"

#include <algorithm>

#include "obs/metrics.h"
#include "report/json.h"
#include "runtime/thread_pool.h"

namespace cbwt::obs {

namespace {

/// Process-unique buffer ids let the per-thread ring cache detect that
/// it belongs to a different (possibly destroyed) buffer without ever
/// dereferencing the stale pointer. Ids start at 1 so the zero-
/// initialized cache never matches.
std::atomic<std::uint64_t> g_next_buffer_id{1};

struct RingCache {
  std::uint64_t buffer_id = 0;
  void* ring = nullptr;  ///< may be null: thread overflowed kMaxThreads
};
thread_local RingCache t_ring_cache;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

TraceBuffer::TraceBuffer(std::size_t events_per_thread)
    : id_(g_next_buffer_id.fetch_add(1, std::memory_order_relaxed)),
      capacity_(round_up_pow2(std::max<std::size_t>(events_per_thread, 2))),
      epoch_(std::chrono::steady_clock::now()),
      rings_(std::make_unique<Ring[]>(kMaxThreads)) {
  // Register the constructing thread now: slot 0 is "main", and the
  // driving thread's first span emit stays allocation-free.
  (void)ring_for_current_thread();
}

std::uint64_t TraceBuffer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

TraceBuffer::Ring* TraceBuffer::ring_for_current_thread() {
  if (t_ring_cache.buffer_id == id_) {
    return static_cast<Ring*>(t_ring_cache.ring);
  }
  Ring* ring = register_current_thread();
  t_ring_cache = {id_, ring};
  return ring;
}

TraceBuffer::Ring* TraceBuffer::register_current_thread() {
  util::MutexLock lock(mutex_);
  if (thread_count_ >= kMaxThreads) return nullptr;
  const std::size_t index = thread_count_++;
  Ring& ring = rings_[index];
  ring.slots = std::make_unique<Slot[]>(capacity_);
  const int worker = runtime::ThreadPool::current_worker_index();
  if (worker >= 0) {
    ring.label = "pool-worker-" + std::to_string(worker);
  } else if (index == 0) {
    ring.label = "main";
  } else {
    ring.label = "thread-" + std::to_string(index);
  }
  ring.used.store(true, std::memory_order_release);
  return &ring;
}

void TraceBuffer::emit(TracePhase phase, std::string_view name, std::uint64_t arg) {
  Ring* ring = ring_for_current_thread();
  if (ring == nullptr) {
    unregistered_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t index = ring->head.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[index & (capacity_ - 1)];
  // Seqlock write: mark the slot in-flight (odd), write the payload with
  // release stores — each one orders the odd mark before itself, so a
  // reader that acquires any new payload value also sees the mark — then
  // stamp the stable generation (even). No standalone fence: GCC's
  // -fsanitize=thread rejects atomic_thread_fence.
  slot.seq.store(2 * index + 1, std::memory_order_relaxed);
  slot.phase.store(static_cast<std::uint8_t>(phase), std::memory_order_release);
  slot.ts_ns.store(now_ns(), std::memory_order_release);
  slot.arg.store(arg, std::memory_order_release);
  const std::size_t n = std::min(name.size(), kTraceNameBytes - 1);
  for (std::size_t i = 0; i < n; ++i) {
    slot.name[i].store(name[i], std::memory_order_release);
  }
  slot.name[n].store('\0', std::memory_order_release);
  slot.seq.store(2 * (index + 1), std::memory_order_release);
  ring->head.store(index + 1, std::memory_order_release);
}

std::vector<TraceBuffer::ThreadTrace> TraceBuffer::snapshot() const {
  std::vector<ThreadTrace> out;
  for (std::size_t t = 0; t < kMaxThreads; ++t) {
    const Ring& ring = rings_[t];
    if (!ring.used.load(std::memory_order_acquire)) continue;
    ThreadTrace trace;
    trace.label = ring.label;
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    const std::uint64_t begin = head > capacity_ ? head - capacity_ : 0;
    trace.dropped = begin;
    trace.events.reserve(static_cast<std::size_t>(head - begin));
    for (std::uint64_t i = begin; i < head; ++i) {
      const Slot& slot = ring.slots[i & (capacity_ - 1)];
      const std::uint64_t want = 2 * (i + 1);
      if (slot.seq.load(std::memory_order_acquire) != want) continue;
      TraceEvent event;
      // Acquire payload loads keep the validating seq load below from
      // moving above them.
      event.phase = static_cast<TracePhase>(slot.phase.load(std::memory_order_acquire));
      event.ts_ns = slot.ts_ns.load(std::memory_order_acquire);
      event.arg = slot.arg.load(std::memory_order_acquire);
      char name[kTraceNameBytes];
      for (std::size_t j = 0; j < kTraceNameBytes; ++j) {
        name[j] = slot.name[j].load(std::memory_order_acquire);
        if (name[j] == '\0') break;
      }
      name[kTraceNameBytes - 1] = '\0';
      // Seqlock read validation: if the writer lapped us mid-read the
      // generation changed; drop the torn event.
      if (slot.seq.load(std::memory_order_relaxed) != want) continue;
      event.name.assign(name);
      trace.events.push_back(std::move(event));
    }
    out.push_back(std::move(trace));
  }
  return out;
}

std::uint64_t TraceBuffer::total_dropped() const {
  std::uint64_t dropped = unregistered_dropped_.load(std::memory_order_relaxed);
  for (std::size_t t = 0; t < kMaxThreads; ++t) {
    const Ring& ring = rings_[t];
    if (!ring.used.load(std::memory_order_acquire)) continue;
    const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
    if (head > capacity_) dropped += head - capacity_;
  }
  return dropped;
}

std::size_t TraceBuffer::thread_count() const {
  util::MutexLock lock(mutex_);
  return thread_count_;
}

ScopedTrace::ScopedTrace(Registry* registry, std::string_view name, std::uint64_t arg)
    : trace_(registry == nullptr ? nullptr : registry->trace_buffer()), name_(name) {
  if (trace_ != nullptr) trace_->emit(TracePhase::kBegin, name_, arg);
}

ScopedTrace::~ScopedTrace() {
  if (trace_ != nullptr) trace_->emit(TracePhase::kEnd, name_);
}

void write_chrome_trace(const TraceBuffer& trace, report::JsonWriter& json) {
  const auto threads = trace.snapshot();
  json.begin_object();
  json.key("displayTimeUnit").value("ms");
  json.key("droppedEvents").value(trace.total_dropped());
  json.key("traceEvents").begin_array();
  for (std::size_t tid = 0; tid < threads.size(); ++tid) {
    json.begin_object();
    json.key("ph").value("M");
    json.key("pid").value(std::uint64_t{1});
    json.key("tid").value(static_cast<std::uint64_t>(tid));
    json.key("name").value("thread_name");
    json.key("args").begin_object();
    json.key("name").value(threads[tid].label);
    json.end_object();
    json.end_object();
  }
  for (std::size_t tid = 0; tid < threads.size(); ++tid) {
    for (const auto& event : threads[tid].events) {
      json.begin_object();
      switch (event.phase) {
        case TracePhase::kBegin: json.key("ph").value("B"); break;
        case TracePhase::kEnd: json.key("ph").value("E"); break;
        case TracePhase::kInstant: json.key("ph").value("i"); break;
      }
      json.key("pid").value(std::uint64_t{1});
      json.key("tid").value(static_cast<std::uint64_t>(tid));
      // Chrome trace timestamps are microseconds; fractional is allowed.
      json.key("ts").value(static_cast<double>(event.ts_ns) / 1000.0);
      json.key("name").value(event.name);
      if (event.phase == TracePhase::kInstant) json.key("s").value("t");
      json.key("args").begin_object();
      json.key("arg").value(event.arg);
      json.end_object();
      json.end_object();
    }
  }
  json.end_array();
  json.end_object();
}

std::string to_chrome_trace(const TraceBuffer& trace) {
  report::JsonWriter json;
  write_chrome_trace(trace, json);
  return json.str();
}

}  // namespace cbwt::obs
