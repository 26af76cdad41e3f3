#include "core/candidate_pool.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>

namespace cdd {

namespace {

std::size_t RoundUpToRowAlign(std::size_t n) {
  const std::size_t a = CandidatePool::kRowAlign;
  return ((std::max<std::size_t>(n, 1) + a - 1) / a) * a;
}

std::size_t RoundUpTo64(std::size_t bytes) {
  return (bytes + 63) / 64 * 64;
}

}  // namespace

CandidatePool::CandidatePool(std::size_t n, std::size_t capacity,
                             std::size_t machines)
    : CandidatePool(n, capacity, core::ActivePoolAllocator(), machines) {}

CandidatePool::CandidatePool(std::size_t n, std::size_t capacity,
                             core::PoolAllocator& allocator,
                             std::size_t machines)
    : n_(n),
      stride_(RoundUpToRowAlign(n)),
      capacity_(std::max<std::size_t>(capacity, 1)),
      machines_(machines) {
  if (n == 0) {
    throw std::invalid_argument("CandidatePool: n must be >= 1");
  }
  if (machines == 0) {
    throw std::invalid_argument("CandidatePool: machines must be >= 1");
  }

  // One contiguous block of 64-byte-aligned sections:
  //   [ seqs | shadow | costs | pinned | splits | shadow-splits ]
  // (the two splits sections exist only for multi-machine pools) so a pool
  // costs its allocator exactly one Allocate and the fallback decision is
  // made once, for all arrays together.
  const std::size_t rows_bytes =
      RoundUpTo64(stride_ * capacity_ * sizeof(JobId));
  const std::size_t costs_bytes = RoundUpTo64(capacity_ * sizeof(Cost));
  const std::size_t pinned_bytes =
      RoundUpTo64(capacity_ * sizeof(std::int32_t));
  const std::size_t splits_bytes =
      machines_ > 1
          ? RoundUpTo64((machines_ - 1) * capacity_ * sizeof(std::int32_t))
          : 0;
  block_bytes_ =
      2 * rows_bytes + costs_bytes + pinned_bytes + 2 * splits_bytes;

  allocator_ = &allocator;
  block_ = allocator_->Allocate(block_bytes_, 64);
  if (block_ == nullptr) {
    // Graceful degradation: a pool that lives in the wrong kind of memory
    // still computes the right answers; record the fallback and carry on.
    core::GlobalPoolStats().fallbacks.fetch_add(1,
                                                std::memory_order_relaxed);
    allocator_ = &core::PoolAllocatorFor(core::PoolBackend::kHost);
    block_ = allocator_->Allocate(block_bytes_, 64);
    if (block_ == nullptr) {
      throw std::bad_alloc();
    }
  }
  backend_ = allocator_->backend();

  auto* base = static_cast<char*>(block_);
  seqs_ = reinterpret_cast<JobId*>(base);
  shadow_ = reinterpret_cast<JobId*>(base + rows_bytes);
  costs_ = reinterpret_cast<Cost*>(base + 2 * rows_bytes);
  pinned_ = reinterpret_cast<std::int32_t*>(base + 2 * rows_bytes +
                                            costs_bytes);
  if (machines_ > 1) {
    splits_ = reinterpret_cast<std::int32_t*>(base + 2 * rows_bytes +
                                              costs_bytes + pinned_bytes);
    shadow_splits_ = reinterpret_cast<std::int32_t*>(
        base + 2 * rows_bytes + costs_bytes + pinned_bytes + splits_bytes);
  }

  // Deterministic initial contents (what the std::vector storage used to
  // guarantee).
  std::memset(seqs_, 0, rows_bytes);
  std::memset(shadow_, 0, rows_bytes);
  std::memset(costs_, 0, costs_bytes);
  std::fill_n(pinned_, capacity_, -1);
  if (machines_ > 1) {
    std::memset(splits_, 0, splits_bytes);
    std::memset(shadow_splits_, 0, splits_bytes);
  }
}

void CandidatePool::Release() noexcept {
  if (block_ != nullptr) {
    allocator_->Deallocate(block_, block_bytes_);
    block_ = nullptr;
  }
}

CandidatePool::~CandidatePool() { Release(); }

CandidatePool::CandidatePool(CandidatePool&& other) noexcept
    : n_(other.n_),
      stride_(other.stride_),
      capacity_(other.capacity_),
      machines_(other.machines_),
      size_(other.size_),
      generation_(other.generation_),
      backend_(other.backend_),
      allocator_(other.allocator_),
      block_(std::exchange(other.block_, nullptr)),
      block_bytes_(other.block_bytes_),
      seqs_(other.seqs_),
      shadow_(other.shadow_),
      costs_(other.costs_),
      pinned_(other.pinned_),
      splits_(other.splits_),
      shadow_splits_(other.shadow_splits_) {}

CandidatePool& CandidatePool::operator=(CandidatePool&& other) noexcept {
  if (this != &other) {
    Release();
    n_ = other.n_;
    stride_ = other.stride_;
    capacity_ = other.capacity_;
    machines_ = other.machines_;
    size_ = other.size_;
    generation_ = other.generation_;
    backend_ = other.backend_;
    allocator_ = other.allocator_;
    block_ = std::exchange(other.block_, nullptr);
    block_bytes_ = other.block_bytes_;
    seqs_ = other.seqs_;
    shadow_ = other.shadow_;
    costs_ = other.costs_;
    pinned_ = other.pinned_;
    splits_ = other.splits_;
    shadow_splits_ = other.shadow_splits_;
  }
  return *this;
}

std::size_t CandidatePool::Append(std::span<const JobId> src) {
  if (src.size() != n_) {
    throw std::invalid_argument(
        "CandidatePool::Append: sequence length mismatch");
  }
  const std::size_t b = AppendUninitialized();
  std::copy(src.begin(), src.end(), seqs_ + b * stride_);
  return b;
}

std::size_t CandidatePool::AppendUninitialized() {
  if (size_ == capacity_) {
    throw std::length_error("CandidatePool: capacity exhausted");
  }
  return size_++;
}

}  // namespace cdd
