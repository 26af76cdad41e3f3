#pragma once
/// \file candidate_pool.hpp
/// \brief Generation-batched candidate storage for the evaluation hot path.
///
/// Every engine of the library evaluates a generation of candidate
/// sequences at a time — a swarm, an offspring cohort, an SA step's single
/// neighbour, or a simulated ensemble.  CandidatePool gives all of them one
/// bookkeeping idiom: a structure-of-arrays block of B stride-aligned
/// sequence rows plus parallel costs[B] / pinned[B] result arrays, filled
/// by a single EvalCddBatch / EvalUcddcpBatch call per generation (see
/// meta::SequenceObjective::EvaluateBatch).
///
/// Layout contract:
///  * row b occupies seqs[b*stride .. b*stride + n); stride rounds n up to
///    a 64-byte multiple so rows never share a cache line,
///  * rows are perturbed in place (the spans returned by row() are
///    writable) — engines copy a parent in, mutate, and evaluate without
///    per-candidate allocation,
///  * the pool double-buffers its sequence storage: engines that build
///    generation g+1 from generation g (selection, elitism) write survivors
///    into the shadow rows and flip with SwapBuffers(), an O(1) exchange.
///
/// Memory model (PR 6): the pool does not own vectors; it borrows one
/// contiguous block from a core::PoolAllocator — pageable host or
/// simulated-device-resident (see pool_allocator.hpp).  The backend
/// changes *placement and transfer cost*, never layout or results:
/// stride, alignment and contents are identical across backends, so
/// every engine trajectory is bit-identical under any CDD_POOL_BACKEND
/// value.  If the requested allocator fails, construction falls back to
/// the default host backend (recorded in core::GlobalPoolStats().fallbacks;
/// backend() then reports kHost) and only throws std::bad_alloc when the
/// host allocator fails too.
///
/// Thread-safety: a CandidatePool is a single-owner object — exactly one
/// thread may mutate it (Append/Clear/SwapBuffers/row writes) at a time,
/// and EvaluateBatch readers must be the same thread or externally
/// synchronized.  Distinct pools are fully independent: the serve layer
/// allocates one pool per request and lends it to the engine running on
/// that worker, so pools never cross threads concurrently.
///
/// View invalidation rule: SwapBuffers() exchanges the live and shadow
/// sequence storage, so every CandidatePoolView taken before the swap
/// points at what are now the *shadow* rows.  A view is valid only until
/// the next SwapBuffers() on its pool; engines that hold one across a swap
/// must re-fetch it with view().  Each swap bumps a buffer-generation
/// counter recorded by view(); CandidatePoolView::current() reports
/// staleness, row() asserts it in debug builds.  Two kinds of views are
/// exempt (always current()): views built over raw device buffers (no
/// owning pool, pool_generation == nullptr) and views whose backend is
/// kDevice — device-resident pools are consumed by simulated kernels that
/// capture the view by value and never observe a host-side swap.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "core/pool_allocator.hpp"
#include "core/types.hpp"

namespace cdd {

/// Non-owning view of a stride-aligned candidate pool.  Trivially copyable
/// by design: the GPU-simulator kernels capture it by value, host code
/// builds it over CandidatePool storage or over device buffers.
///
/// A view never outlives its storage — holders must not use one after the
/// owning pool (or device buffer) is destroyed; current() only detects
/// buffer *swaps*, not lifetime.
struct CandidatePoolView {
  JobId* seqs = nullptr;          ///< row b at seqs[b*stride]
  Cost* costs = nullptr;          ///< per-row objective values
  std::int32_t* pinned = nullptr; ///< optional per-row pinned positions
  /// Per-row machine split positions (machines-1 ascending values per row,
  /// row b at splits[b*(machines-1)]); nullptr for single-machine pools.
  std::int32_t* splits = nullptr;
  std::int32_t n = 0;             ///< jobs per sequence
  std::int32_t stride = 0;        ///< row pitch in elements (>= n)
  std::int32_t machines = 1;      ///< machines per candidate (>= 1)
  std::uint32_t count = 0;        ///< number of live rows
  /// Buffer generation of the owning pool when this view was taken; stale
  /// after the pool's next SwapBuffers() (see the file comment).
  std::uint32_t generation = 0;
  /// The owning pool's live generation counter, or nullptr for views over
  /// device buffers / raw storage, which never go stale.
  const std::uint32_t* pool_generation = nullptr;
  /// Where the viewed storage lives; drives the transfer-cost model on
  /// every handoff (serve -> engine, host -> LaunchFitness).  Views built
  /// over raw sim::DeviceBuffer storage must tag themselves kDevice.
  core::PoolBackend backend = core::PoolBackend::kHost;

  /// False exactly when the owning pool swapped buffers after this view
  /// was taken, i.e. when seqs now aliases the shadow rows.  Device-backed
  /// views are exempt (see the file comment) and always report true.
  bool current() const {
    return backend == core::PoolBackend::kDevice ||
           pool_generation == nullptr || *pool_generation == generation;
  }

  /// What a handoff of this view costs each side (see pool_allocator.hpp).
  core::PoolTransferCost transfer_cost() const {
    return core::TransferCost(backend);
  }

  JobId* row(std::uint32_t b) const {
    assert(current() && "stale CandidatePoolView: pool swapped buffers");
    return seqs + static_cast<std::size_t>(b) * stride;
  }
};

/// Owning, reusable candidate pool (see file comment for the layout).
/// Movable, non-copyable: the storage block belongs to exactly one pool.
class CandidatePool {
 public:
  /// Elements per cache line; stride is rounded up to this so adjacent
  /// rows never false-share.
  static constexpr std::size_t kRowAlign = 64 / sizeof(JobId);

  /// Pool for sequences of \p n jobs with room for \p capacity rows,
  /// backed by the process's active allocator (CDD_POOL_BACKEND).
  /// \p machines > 1 additionally reserves machines-1 split positions per
  /// row (the m-machine candidate encoding of eval_raw.hpp), double
  /// buffered alongside the sequence rows.
  /// Preconditions: n >= 1 and machines >= 1 (throws std::invalid_argument
  /// otherwise); capacity 0 is clamped to 1 — a pool always holds at least
  /// one row.
  CandidatePool(std::size_t n, std::size_t capacity,
                std::size_t machines = 1);

  /// Same, backed by an explicit allocator (the serve layer passes the
  /// allocator its ServiceConfig selected).  If \p allocator fails, falls
  /// back to the host backend — see the file comment.
  CandidatePool(std::size_t n, std::size_t capacity,
                core::PoolAllocator& allocator, std::size_t machines = 1);

  ~CandidatePool();

  CandidatePool(CandidatePool&& other) noexcept;
  CandidatePool& operator=(CandidatePool&& other) noexcept;
  CandidatePool(const CandidatePool&) = delete;
  CandidatePool& operator=(const CandidatePool&) = delete;

  std::size_t n() const { return n_; }
  std::size_t stride() const { return stride_; }
  std::size_t capacity() const { return capacity_; }
  /// Machines per candidate (1 = plain permutation rows, no splits).
  std::size_t machines() const { return machines_; }
  /// Number of live rows appended since the last Clear().
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  /// The backend actually backing this pool's storage.  Equals the
  /// requested allocator's backend unless allocation fell back to kHost.
  core::PoolBackend backend() const { return backend_; }

  /// Forgets all live rows (storage is retained).
  void Clear() { size_ = 0; }

  /// Claims the next row and copies \p src into it; returns the row index.
  /// Throws std::invalid_argument on length mismatch, std::length_error
  /// when full.
  std::size_t Append(std::span<const JobId> src);

  /// Claims the next row uninitialized (callers fill it in place).
  std::size_t AppendUninitialized();

  /// Writable view of live row \p b (exactly n elements).
  std::span<JobId> row(std::size_t b) { return {seqs_ + b * stride_, n_}; }
  std::span<const JobId> row(std::size_t b) const {
    return {seqs_ + b * stride_, n_};
  }

  /// Writable view of shadow row \p b — the other half of the generation
  /// double buffer.  Selection-style engines write survivors here and flip.
  std::span<JobId> shadow_row(std::size_t b) {
    return {shadow_ + b * stride_, n_};
  }

  /// Machine split positions of live row \p b (machines-1 elements,
  /// ascending, in [0, n]; see eval_raw.hpp).  Empty for single-machine
  /// pools.
  std::span<std::int32_t> splits_row(std::size_t b) {
    return {splits_ + b * (machines_ - 1), machines_ - 1};
  }
  std::span<const std::int32_t> splits_row(std::size_t b) const {
    return {splits_ + b * (machines_ - 1), machines_ - 1};
  }

  /// Shadow half of the splits double buffer (parallel to shadow_row).
  std::span<std::int32_t> shadow_splits_row(std::size_t b) {
    return {shadow_splits_ + b * (machines_ - 1), machines_ - 1};
  }

  /// O(1) exchange of live and shadow sequence storage (and, for
  /// multi-machine pools, the splits storage — a row and its splits always
  /// travel together).  Costs and pinned arrays describe whatever was
  /// evaluated last and are not swapped.
  /// Invalidates every outstanding view (see the file comment): the swap
  /// bumps the buffer generation, so stale views fail current() and the
  /// debug assert in CandidatePoolView::row().
  void SwapBuffers() {
    std::swap(seqs_, shadow_);
    std::swap(splits_, shadow_splits_);
    ++generation_;
  }

  /// Buffer generation: bumped once per SwapBuffers().  Views record the
  /// value at creation; a mismatch marks the view stale.
  std::uint32_t generation() const { return generation_; }

  /// Per-row results of the last EvaluateBatch over this pool.
  std::span<Cost> costs() { return {costs_, size_}; }
  std::span<const Cost> costs() const { return {costs_, size_}; }
  std::span<std::int32_t> pinned() { return {pinned_, size_}; }
  std::span<const std::int32_t> pinned() const { return {pinned_, size_}; }

  /// Raw view over the live rows (the batch evaluators' input).  Valid
  /// until the next SwapBuffers() on this pool; re-fetch after a swap.
  /// The view carries this pool's backend tag.
  CandidatePoolView view() {
    return {seqs_,
            costs_,
            pinned_,
            splits_,
            static_cast<std::int32_t>(n_),
            static_cast<std::int32_t>(stride_),
            static_cast<std::int32_t>(machines_),
            static_cast<std::uint32_t>(size_),
            generation_,
            &generation_,
            backend_};
  }

 private:
  void Release() noexcept;

  std::size_t n_ = 0;
  std::size_t stride_ = 0;
  std::size_t capacity_ = 0;
  std::size_t machines_ = 1;
  std::size_t size_ = 0;
  std::uint32_t generation_ = 0;
  core::PoolBackend backend_ = core::PoolBackend::kHost;
  /// The allocator that owns block_ (a process-lifetime singleton or a
  /// caller-owned injected allocator that must outlive the pool).
  core::PoolAllocator* allocator_ = nullptr;
  void* block_ = nullptr;
  std::size_t block_bytes_ = 0;
  JobId* seqs_ = nullptr;
  JobId* shadow_ = nullptr;
  Cost* costs_ = nullptr;
  std::int32_t* pinned_ = nullptr;
  std::int32_t* splits_ = nullptr;         ///< nullptr when machines_ == 1
  std::int32_t* shadow_splits_ = nullptr;  ///< nullptr when machines_ == 1
};

/// Borrow-or-own helper for the serve layer's zero-copy pool handoff: an
/// engine asks for (n, capacity); if the lent pool fits (same n, enough
/// capacity) it is Clear()ed and borrowed in place — no allocation, no
/// copy — otherwise the lease owns a private pool from the active
/// allocator.  Pass nullptr when nothing was lent.
class PoolLease {
 public:
  PoolLease(CandidatePool* lent, std::size_t n, std::size_t capacity,
            std::size_t machines = 1) {
    if (lent != nullptr && lent->n() == n && lent->machines() == machines &&
        lent->capacity() >= std::max<std::size_t>(capacity, 1)) {
      lent->Clear();
      pool_ = lent;
    } else {
      owned_.emplace(n, capacity, machines);
      pool_ = &*owned_;
    }
  }

  PoolLease(const PoolLease&) = delete;
  PoolLease& operator=(const PoolLease&) = delete;

  CandidatePool& operator*() { return *pool_; }
  CandidatePool* operator->() { return pool_; }

  /// True when the lease runs on the lent pool (the zero-copy path).
  bool borrowed() const { return !owned_.has_value(); }

 private:
  CandidatePool* pool_ = nullptr;
  std::optional<CandidatePool> owned_;
};

}  // namespace cdd
