#include "mem/pool_allocator.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#include "common/fault_injection.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace spgemm::mem {
namespace {

/// Injected allocation faults must not fire inside an OpenMP parallel
/// region: an exception cannot cross the region boundary, so a trigger
/// there would terminate the process instead of exercising a recovery
/// path.  A real allocation failure inside a region is equally
/// non-recoverable today — the fault framework deliberately restricts
/// itself to the failures the library can actually survive.
///
/// omp_get_level(), not omp_in_parallel(): a team-of-one region (single
/// core, OMP_NUM_THREADS=1) is *inactive* per the spec, so
/// omp_in_parallel() reports 0 inside it — but a throw there still has
/// to unwind through libgomp's outlined-function call and terminates.
/// The nesting level counts enclosing regions regardless of team size.
bool fault_injectable_here() noexcept {
#ifdef _OPENMP
  return omp_get_level() == 0;
#else
  return true;
#endif
}

constexpr std::size_t kMinClassBytes = 64;          // one cache line
constexpr std::size_t kMaxClassBytes = 64u << 20;   // 64 MB
constexpr int kNumClasses = 21;                     // 64B .. 64MB inclusive
constexpr std::size_t kHeaderBytes = 64;            // keeps payload aligned
constexpr std::size_t kCarveTargetBytes = 1u << 20; // carve ~1MB per refill

static_assert((kMinClassBytes << (kNumClasses - 1)) == kMaxClassBytes);

/// Every pool block starts with this header, 64 bytes before the payload.
struct BlockHeader {
  std::int32_t size_class;  // -1 marks an oversize (operator new) block
  std::int32_t magic;       // lightweight double-free / foreign-free guard
  std::uint64_t owner;      // ThreadCache::id of the allocating thread
};
static_assert(sizeof(BlockHeader) <= kHeaderBytes);
constexpr std::int32_t kMagicLive = 0x5167B10C;   // "SIGBLOC"
constexpr std::int32_t kMagicFree = 0x0DEADF5E;

struct FreeNode {
  FreeNode* next;
};

std::size_t class_bytes(int cls) { return kMinClassBytes << cls; }

int class_for(std::size_t bytes) {
  if (bytes > kMaxClassBytes) return -1;
  const std::size_t want = bytes < kMinClassBytes ? kMinClassBytes : bytes;
  const int cls = std::bit_width(want - 1) < 6
                      ? 0
                      : static_cast<int>(std::bit_width(want - 1)) - 6;
  return cls;
}

struct Stats {
  std::atomic<std::uint64_t> allocations{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> carves{0};
  std::atomic<std::uint64_t> oversize{0};
  std::atomic<std::uint64_t> bytes_in_arena{0};
};
Stats g_stats;

/// Shared arena: owns raw chunks for the lifetime of the process and keeps
/// a global per-class spill list that thread caches flush into.
class Arena {
 public:
  static Arena& instance() {
    static Arena arena;
    return arena;
  }

  /// Carve a fresh run of `count` blocks of class `cls`; returns the list
  /// head, blocks linked through FreeNode.
  FreeNode* carve(int cls, std::size_t count) {
    if (fault_injectable_here()) SPGEMM_FAULT_ALLOC("mem.pool.carve");
    const std::size_t stride = kHeaderBytes + class_bytes(cls);
    const std::size_t total = stride * count;
    void* raw = std::aligned_alloc(kHeaderBytes, total);
    if (raw == nullptr) throw std::bad_alloc();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      chunks_.push_back(raw);
    }
    g_stats.carves.fetch_add(1, std::memory_order_relaxed);
    g_stats.bytes_in_arena.fetch_add(total, std::memory_order_relaxed);

    auto* base = static_cast<std::byte*>(raw);
    FreeNode* head = nullptr;
    for (std::size_t i = count; i-- > 0;) {
      auto* hdr = reinterpret_cast<BlockHeader*>(base + i * stride);
      hdr->size_class = cls;
      hdr->magic = kMagicFree;
      auto* node = reinterpret_cast<FreeNode*>(
          reinterpret_cast<std::byte*>(hdr) + kHeaderBytes);
      node->next = head;
      head = node;
    }
    return head;
  }

  /// Push a whole list of blocks of class `cls` onto the global spill list
  /// (thread-cache flushes, and single blocks freed by a thread other than
  /// the one that allocated them).
  void spill(int cls, FreeNode* head, FreeNode* tail) {
    std::lock_guard<std::mutex> lock(mutex_);
    tail->next = spill_[cls];
    spill_[cls] = head;
  }

  /// Try to pop one block of class `cls` from the spill list.
  FreeNode* try_pop(int cls) {
    std::lock_guard<std::mutex> lock(mutex_);
    FreeNode* node = spill_[cls];
    if (node != nullptr) spill_[cls] = node->next;
    return node;
  }

 private:
  Arena() = default;
  // Chunks are intentionally leaked at process exit: thread-local caches may
  // be destroyed after the arena, and returning pages to the OS at exit is
  // exactly the cost the pool exists to avoid.
  std::mutex mutex_;
  std::vector<void*> chunks_;
  FreeNode* spill_[kNumClasses] = {};
};

std::atomic<std::uint64_t> g_next_cache_id{0};

/// Per-thread free lists, one per size class.
struct ThreadCache {
  FreeNode* lists[kNumClasses] = {};
  /// Process-unique tag stamped into the blocks this thread allocates.
  const std::uint64_t id =
      g_next_cache_id.fetch_add(1, std::memory_order_relaxed);

  ~ThreadCache() {
    // Return everything to the arena so other threads can reuse it.
    for (int cls = 0; cls < kNumClasses; ++cls) flush_class(cls);
  }

  void flush_class(int cls) {
    FreeNode* head = lists[cls];
    if (head == nullptr) return;
    FreeNode* tail = head;
    while (tail->next != nullptr) tail = tail->next;
    Arena::instance().spill(cls, head, tail);
    lists[cls] = nullptr;
  }
};

ThreadCache& thread_cache() {
  thread_local ThreadCache cache;
  return cache;
}

BlockHeader* header_of(void* payload) {
  return reinterpret_cast<BlockHeader*>(static_cast<std::byte*>(payload) -
                                        kHeaderBytes);
}

}  // namespace

void* pool_malloc(std::size_t bytes) {
  g_stats.allocations.fetch_add(1, std::memory_order_relaxed);
  const int cls = class_for(bytes);
  if (cls < 0) {
    // Oversize: fall through to the system allocator, still headered so
    // pool_free can route it correctly.
    if (fault_injectable_here()) SPGEMM_FAULT_ALLOC("mem.pool.oversize");
    g_stats.oversize.fetch_add(1, std::memory_order_relaxed);
    auto* raw = static_cast<std::byte*>(
        ::operator new(bytes + kHeaderBytes, std::align_val_t(kHeaderBytes)));
    auto* hdr = reinterpret_cast<BlockHeader*>(raw);
    hdr->size_class = -1;
    hdr->magic = kMagicLive;
    return raw + kHeaderBytes;
  }

  ThreadCache& cache = thread_cache();
  FreeNode* node = cache.lists[cls];
  if (node != nullptr) {
    g_stats.cache_hits.fetch_add(1, std::memory_order_relaxed);
    cache.lists[cls] = node->next;
  } else {
    node = Arena::instance().try_pop(cls);
    if (node == nullptr) {
      const std::size_t count =
          kCarveTargetBytes / (class_bytes(cls) + kHeaderBytes);
      node = Arena::instance().carve(cls, count == 0 ? 1 : count);
      cache.lists[cls] = node->next;
      node->next = nullptr;
    }
  }
  BlockHeader* hdr = header_of(node);
  hdr->magic = kMagicLive;
  hdr->owner = cache.id;
  return node;
}

void pool_free(void* ptr) {
  if (ptr == nullptr) return;
  BlockHeader* hdr = header_of(ptr);
  if (hdr->magic != kMagicLive) {
    // Double free or foreign pointer: abort loudly rather than corrupt.
    std::abort();
  }
  if (hdr->size_class < 0) {
    ::operator delete(hdr, std::align_val_t(kHeaderBytes));
    return;
  }
  hdr->magic = kMagicFree;
  ThreadCache& cache = thread_cache();
  auto* node = static_cast<FreeNode*>(ptr);
  if (hdr->owner != cache.id) {
    // Another thread allocated it: hand it back through the arena, where
    // that thread (or any other) can pop it, instead of stranding it in
    // this thread's cache.
    Arena::instance().spill(hdr->size_class, node, node);
    return;
  }
  node->next = cache.lists[hdr->size_class];
  cache.lists[hdr->size_class] = node;
}

PoolStats pool_stats() {
  PoolStats out;
  out.allocations = g_stats.allocations.load(std::memory_order_relaxed);
  out.cache_hits = g_stats.cache_hits.load(std::memory_order_relaxed);
  out.carves = g_stats.carves.load(std::memory_order_relaxed);
  out.oversize = g_stats.oversize.load(std::memory_order_relaxed);
  out.bytes_in_arena = g_stats.bytes_in_arena.load(std::memory_order_relaxed);
  return out;
}

void pool_stats_reset() {
  g_stats.allocations.store(0, std::memory_order_relaxed);
  g_stats.cache_hits.store(0, std::memory_order_relaxed);
  g_stats.carves.store(0, std::memory_order_relaxed);
  g_stats.oversize.store(0, std::memory_order_relaxed);
  g_stats.bytes_in_arena.store(0, std::memory_order_relaxed);
}

void pool_thread_cache_flush() {
  ThreadCache& cache = thread_cache();
  for (int cls = 0; cls < kNumClasses; ++cls) cache.flush_class(cls);
}

}  // namespace spgemm::mem
