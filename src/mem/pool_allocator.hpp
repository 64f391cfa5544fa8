// Thread-caching scalable allocator — the stand-in for TBB scalable_malloc.
//
// The paper (§3.2) finds that releasing large temporaries through a single
// allocator call costs >100 ms on KNL, and that per-thread ("parallel")
// allocation/deallocation of the same total volume is far cheaper, with TBB's
// scalable allocator pushing the cliff out further than glibc.  This pool
// plays TBB's role: per-thread size-class free lists over a shared arena so
// that a free() is an O(1) push with no page give-back, and repeated
// SpGEMM temporaries (hash tables, SPA arrays, staging buffers) recycle
// hot memory instead of round-tripping through the kernel.
//
// Design:
//   * size classes: powers of two from 64 B to 64 MB; larger requests fall
//     through to ::operator new / delete (they are rare and intentionally
//     visible in the Fig. 4 reproduction).
//   * each thread owns a ThreadCache (thread_local) of per-class free lists;
//     a block freed by the thread that allocated it is an O(1) lock-free
//     push onto that cache.  A block freed by ANOTHER thread (OpenMP
//     workers allocate per-thread state, the caller destroys it) goes to
//     the arena's spill list, where the allocating side pops it on its next
//     miss; otherwise every such cycle would strand its blocks in the
//     caller's cache and carve fresh chunks for the workers.  The header
//     carries the block's class and allocating thread.
//   * carving: when a class list is empty the cache carves a chunk from the
//     global arena (lock-guarded bump region) and splits it into blocks.
//
// All blocks are 64-byte aligned; the 64-byte header keeps payload alignment.
#pragma once

#include <cstddef>
#include <cstdint>

namespace spgemm::mem {

/// Statistics snapshot for introspection and tests.
struct PoolStats {
  std::uint64_t allocations = 0;    ///< calls served from the pool
  std::uint64_t cache_hits = 0;     ///< served from a thread free list
  std::uint64_t carves = 0;         ///< chunks carved from the arena
  std::uint64_t oversize = 0;       ///< requests beyond the largest class
  std::uint64_t bytes_in_arena = 0; ///< total bytes ever carved
};

/// Allocate `bytes` from the calling thread's pool cache (64-byte aligned).
void* pool_malloc(std::size_t bytes);

/// Return a pointer obtained from pool_malloc.  Safe to call from any
/// thread; nullptr is ignored.
void pool_free(void* ptr);

/// Global counters (approximate under concurrency; exact single-threaded).
PoolStats pool_stats();

/// Reset the statistics counters (not the cached memory).
void pool_stats_reset();

/// Drop every block cached by the *calling* thread back to the arena's
/// reuse list.  Used by tests to exercise refill paths.
void pool_thread_cache_flush();

/// STL-compatible allocator adapter over the pool, so standard containers
/// can live in recycled memory inside kernels.
template <typename T>
struct PoolStlAllocator {
  using value_type = T;

  PoolStlAllocator() noexcept = default;
  template <typename U>
  PoolStlAllocator(const PoolStlAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(pool_malloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept { pool_free(p); }

  template <typename U>
  bool operator==(const PoolStlAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace spgemm::mem
