#ifndef UJOIN_JOIN_PARALLEL_FOR_H_
#define UJOIN_JOIN_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace ujoin::internal {

/// Worker count for `work_items` items: `requested`, or the hardware
/// concurrency when `requested` <= 0, capped at max(work_items, 1).
inline int ResolveThreads(int requested, size_t work_items) {
  int threads = requested;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  return std::min(threads,
                  static_cast<int>(std::max<size_t>(work_items, 1)));
}

/// \brief The fork-join of every parallel driver (self-join waves, batch
/// search, cross join): runs fn(worker, i) for every i in [0, count).
///
/// Runs inline on the calling thread when min(threads, count) <= 1.
/// Otherwise items are handed out through an atomic counter, so which worker
/// runs which item is arbitrary — fn may touch only item-private state plus
/// worker-private scratch.  Each pool thread has a fixed worker id in
/// [0, threads), so worker-indexed buffers like QueryWorkspaces are never
/// shared.
template <typename Fn>
void ParallelFor(int threads, size_t count, const Fn& fn) {
  if (count == 0) return;
  const int workers = static_cast<int>(
      std::min(static_cast<size_t>(std::max(threads, 1)), count));
  if (workers <= 1) {
    for (size_t i = 0; i < count; ++i) fn(0, i);
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int t = 0; t < workers; ++t) {
    pool.emplace_back([&, t]() {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= count) return;
        fn(t, i);
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
}

}  // namespace ujoin::internal

#endif  // UJOIN_JOIN_PARALLEL_FOR_H_
