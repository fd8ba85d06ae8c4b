#pragma once
// Generation-checked slab allocator: O(1) acquire/release with stable
// 32-bit indices and ABA-safe handles. The packet simulator keys its
// in-flight transaction units by slab handle (a pool bump instead of a
// hash insert per unit), and ChannelNetwork's one HTLC book keys every
// in-flight HTLC of the network the same way. A handle packs to one
// 64-bit word, so it rides in the typed event queue's payload unchanged.
//
// Slots live in chunks that grow geometrically (16 slots, then twice
// the previous chunk), so a slab costs memory in proportion to its peak
// live count and grows in O(log n) allocations. Indices are assigned
// sequentially with a LIFO free list, independent of the chunk layout,
// so handles (and every checksum built from them) do not depend on it.
//
// Recycled slots keep their previous tenant's value object, so any
// heap capacity it owned (e.g. a vector) is reused; the caller resets
// the fields it needs after acquire().

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace spider::core {

/// Handle to a slab slot. Stale handles (released, possibly recycled)
/// are detected via the generation counter: get() returns nullptr.
struct SlabHandle {
  std::uint32_t index = 0;
  std::uint32_t gen = 0;  // 0 never matches a live slot

  /// One-word encoding for event payloads; 0 is never a live handle.
  [[nodiscard]] constexpr std::uint64_t packed() const {
    return (static_cast<std::uint64_t>(gen) << 32) | index;
  }
  [[nodiscard]] static constexpr SlabHandle unpack(std::uint64_t word) {
    return SlabHandle{static_cast<std::uint32_t>(word),
                      static_cast<std::uint32_t>(word >> 32)};
  }

  friend bool operator==(const SlabHandle&, const SlabHandle&) = default;
};

/// Growing the slab allocates a new chunk and never moves an existing
/// slot: value addresses are stable for a slot's lifetime.
template <typename T>
class Slab {
 public:
  /// Claims a slot (recycling released ones first) and returns its
  /// handle. The slot's value is the previous tenant's (capacity
  /// preserved) or default-constructed; reset what you use.
  SlabHandle acquire() {
    std::uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = static_cast<std::uint32_t>(size_);
      const std::size_t chunk_size = kFirstChunk << chunks_.size();
      if (size_ == chunk_size - kFirstChunk) {  // every chunk is full
        chunks_.push_back(std::make_unique<Slot[]>(chunk_size));
      }
      ++size_;
    }
    Slot& s = slot(index);
    s.occupied = true;
    ++live_;
    return SlabHandle{index, s.gen};
  }

  /// Slot value for a live handle; nullptr if stale or never valid.
  [[nodiscard]] T* get(SlabHandle h) {
    if (h.index >= size_) return nullptr;
    Slot& s = slot(h.index);
    return (s.occupied && s.gen == h.gen) ? &s.value : nullptr;
  }
  [[nodiscard]] const T* get(SlabHandle h) const {
    if (h.index >= size_) return nullptr;
    const Slot& s = slot(h.index);
    return (s.occupied && s.gen == h.gen) ? &s.value : nullptr;
  }

  /// Frees the slot and invalidates every handle to it (generation
  /// bump). No-op on stale handles.
  void release(SlabHandle h) {
    if (get(h) == nullptr) return;
    Slot& s = slot(h.index);
    s.occupied = false;
    ++s.gen;
    --live_;
    free_.push_back(h.index);
  }

  /// Number of live (acquired, unreleased) slots.
  [[nodiscard]] std::size_t live() const { return live_; }
  /// Total slots ever created (live + free).
  [[nodiscard]] std::size_t capacity() const { return size_; }

  /// Visits every live slot in ascending index order (a deterministic
  /// order independent of acquire/release history). `fn` is called as
  /// fn(SlabHandle, T&). The callback must not acquire or release slab
  /// slots; collect handles first for mutating walks.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::uint32_t i = 0; i < size_; ++i) {
      Slot& s = slot(i);
      if (s.occupied) fn(SlabHandle{i, s.gen}, s.value);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t i = 0; i < size_; ++i) {
      const Slot& s = slot(i);
      if (s.occupied) fn(SlabHandle{i, s.gen}, s.value);
    }
  }

 private:
  static constexpr int kFirstChunkBits = 4;
  static constexpr std::size_t kFirstChunk = std::size_t{1} << kFirstChunkBits;

  struct Slot {
    T value{};
    std::uint32_t gen = 1;
    bool occupied = false;
  };

  // Chunk c holds kFirstChunk << c slots starting at index
  // kFirstChunk * (2^c - 1). Shifted by kFirstChunk, an index in chunk
  // c lies in [kFirstChunk << c, kFirstChunk << (c + 1)): its bit width
  // names the chunk and the bits below its top bit are the offset.
  [[nodiscard]] const Slot& slot(std::uint32_t i) const {
    const std::uint64_t j = std::uint64_t{i} + kFirstChunk;
    const int top = std::bit_width(j) - 1;
    return chunks_[top - kFirstChunkBits][j ^ (std::uint64_t{1} << top)];
  }
  [[nodiscard]] Slot& slot(std::uint32_t i) {
    return const_cast<Slot&>(std::as_const(*this).slot(i));
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t size_ = 0;  // slots ever created
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

}  // namespace spider::core
