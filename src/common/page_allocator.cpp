#include "common/page_allocator.hpp"

#include <sys/mman.h>

#include <atomic>

namespace churnet {
namespace {

std::atomic<std::uint64_t> g_page_maps{0};

}  // namespace

std::uint64_t page_map_count() {
  return g_page_maps.load(std::memory_order_relaxed);
}

namespace detail {

void* map_pages(std::size_t bytes) {
  void* const pointer = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pointer == MAP_FAILED) throw std::bad_alloc();
  g_page_maps.fetch_add(1, std::memory_order_relaxed);
  // A hint, so its result is ignored: where the kernel has no transparent
  // huge pages the mapping simply keeps base pages.
  if (bytes >= kHugePageAdviceBytes) {
    ::madvise(pointer, bytes, MADV_HUGEPAGE);
  }
  return pointer;
}

void unmap_pages(void* pointer, std::size_t bytes) noexcept {
  ::munmap(pointer, bytes);
}

}  // namespace detail
}  // namespace churnet
