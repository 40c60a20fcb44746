// A page-backed allocator for the graph's large arena arrays.
//
// glibc serves a large free()d block back to the next allocations of its
// arena instead of returning it to the OS once its dynamic mmap threshold
// has risen past the block's size, so arrays that grow geometrically and
// are freed job after job leave holes that no later job fills exactly
// (DESIGN.md §5). PageAllocator maps every array of kPageMapBytes or more
// straight from the OS with an anonymous mmap and unmaps it on release:
// a growth step, or a worker's exit, returns the old array's pages at
// once. A mapping of kHugePageAdviceBytes or more is advised to take
// transparent huge pages, so a large arena's random accesses miss the TLB
// less. Smaller arrays, and every array in an AddressSanitizer build (so
// ASan bounds every pool), go through operator new, which keeps them
// visible to counting allocators too. The allocator holds no state and
// sets no process-wide allocator option (no mallopt).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define CHURNET_PAGE_ALLOCATOR_MAPS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CHURNET_PAGE_ALLOCATOR_MAPS 0
#endif
#endif
#ifndef CHURNET_PAGE_ALLOCATOR_MAPS
#define CHURNET_PAGE_ALLOCATOR_MAPS 1
#endif

namespace churnet {

/// Arrays of at least this many bytes are page-mapped (128 KiB, glibc's
/// initial mmap threshold).
inline constexpr std::size_t kPageMapBytes = std::size_t{128} << 10;

/// Mappings of at least this many bytes are advised to take transparent
/// huge pages (16 MiB). At n = 1M the slot records and both pools reach it;
/// at n = 20,000 no array does, and advising every mapping there raised
/// peak RSS by 4 MB with no speed change (DESIGN.md §5).
inline constexpr std::size_t kHugePageAdviceBytes = std::size_t{16} << 20;

/// Page mappings PageAllocator has made since the process started (a
/// monotone, process-wide count; it never moves in a build that does not
/// map). Zero-allocation checks read it beside their operator new count.
std::uint64_t page_map_count();

namespace detail {
void* map_pages(std::size_t bytes);
void unmap_pages(void* pointer, std::size_t bytes) noexcept;
}  // namespace detail

template <typename T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  T* allocate(std::size_t count) {
    if (count > static_cast<std::size_t>(-1) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    const std::size_t bytes = count * sizeof(T);
    if (maps(bytes)) return static_cast<T*>(detail::map_pages(bytes));
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* pointer, std::size_t count) noexcept {
    const std::size_t bytes = count * sizeof(T);
    if (maps(bytes)) {
      detail::unmap_pages(pointer, bytes);
    } else {
      ::operator delete(pointer);
    }
  }

  friend bool operator==(const PageAllocator&, const PageAllocator&) {
    return true;
  }

 private:
  static constexpr bool maps(std::size_t bytes) {
    return CHURNET_PAGE_ALLOCATOR_MAPS != 0 && bytes >= kPageMapBytes;
  }
};

/// A std::vector whose storage comes from PageAllocator.
template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

}  // namespace churnet
