// A std::vector whose resize() leaves trivially default-constructible
// elements unwritten. Buffers that a later pass fills completely (sort
// pairs and scratch, HtY items and slots, Z_local) are allocated with
// no zero fill, so their first touch, and its page faults, happen in
// the pass that writes them, on whichever thread runs it.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace sparta {

template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  /// Default-initializes: no write for a trivial type.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

template <typename T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace sparta
