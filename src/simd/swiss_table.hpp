// Flat open-addressing hash tables with SIMD group probing — the
// swiss-table alternative to the chained HtY (grouped_map.hpp) and the
// probing HtA (linear_probe.hpp / accumulator.hpp).
//
// Layout: one control byte per slot (empty 0x80 / deleted 0xFE / else
// the low 7 bits of the hash as a tag) plus a parallel slot array.
// Probing loads a 16-byte control group and compares all 16 tags in one
// vector op (_mm_cmpeq_epi8 on x86, vceqq_u8 on aarch64); a miss costs
// one cache line of metadata instead of one chained-bucket pointer
// chase per step. The scalar fallback walks the same 16-slot groups in
// the same ascending slot order, so every tier picks identical slots,
// drains in identical order, and therefore accumulates floating point
// in an identical order — forcing SPARTA_SIMD=scalar is bit-exact, the
// invariant the isa-matrix CI job and `fuzz_sptc --isa-diff` enforce.
//
// ContractOptions::use_swiss_tables switches contraction onto these;
// docs/SIMD.md covers the dispatch rules.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "hashtable/grouped_map.hpp"
#include "obs/metrics.hpp"
#include "simd/dispatch.hpp"
#include "tensor/types.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace sparta::simd {

/// Slots per control group — one 128-bit vector compare. Fixed across
/// all tiers (including scalar) so probe sequences are ISA-independent.
inline constexpr std::size_t kGroupWidth = 16;

/// Control bytes. Full slots store a 7-bit tag (top bit clear), so one
/// vector equality against the tag never matches empty or deleted.
inline constexpr std::uint8_t kCtrlEmpty = 0x80;
inline constexpr std::uint8_t kCtrlDeleted = 0xFE;

namespace detail {

/// Bitmask of slots in the 16-byte control group at `ctrl` whose byte
/// equals `want` (bit i = slot i). Every tier returns the identical
/// mask; iteration via countr_zero visits slots in ascending order.
[[nodiscard]] inline std::uint32_t group_match(const std::uint8_t* ctrl,
                                               std::uint8_t want,
                                               SimdIsa isa) {
#if defined(__x86_64__) || defined(_M_X64)
  if (isa == SimdIsa::kAvx2) {
    // 128-bit ops suffice for a 16-byte group; SSE2 is x86-64 baseline
    // so no function-level target attribute is needed. The avx2 tier
    // gates availability, abseil-style, not vector width.
    const __m128i group =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
    const __m128i eq = _mm_cmpeq_epi8(group, _mm_set1_epi8(
                                                 static_cast<char>(want)));
    return static_cast<std::uint32_t>(_mm_movemask_epi8(eq));
  }
#endif
#if defined(__aarch64__)
  if (isa == SimdIsa::kNeon) {
    // NEON has no movemask; narrow the 0xFF/0x00 compare result to one
    // nibble per byte (vshrn by 4), then pick one bit per nibble.
    const uint8x16_t group = vld1q_u8(ctrl);
    const uint8x16_t eq = vceqq_u8(group, vdupq_n_u8(want));
    const uint8x8_t nib =
        vshrn_n_u16(vreinterpretq_u16_u8(eq), 4);
    std::uint64_t m = vget_lane_u64(vreinterpret_u64_u8(nib), 0);
    m &= 0x1111111111111111ULL;  // bit 4*i  <=>  slot i matched
    std::uint32_t out = 0;
    while (m != 0) {
      out |= 1u << (std::countr_zero(m) >> 2);
      m &= m - 1;
    }
    return out;
  }
#endif
  (void)isa;
  std::uint32_t out = 0;
  for (std::size_t j = 0; j < kGroupWidth; ++j) {
    if (ctrl[j] == want) out |= 1u << j;
  }
  return out;
}

/// Bitmask of empty OR deleted slots (both have the top bit set; full
/// tags never do) — the insert-position mask.
[[nodiscard]] inline std::uint32_t group_match_free(const std::uint8_t* ctrl,
                                                    SimdIsa isa) {
#if defined(__x86_64__) || defined(_M_X64)
  if (isa == SimdIsa::kAvx2) {
    const __m128i group =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
    // movemask already extracts the sign bit of every byte.
    return static_cast<std::uint32_t>(_mm_movemask_epi8(group));
  }
#endif
#if defined(__aarch64__)
  if (isa == SimdIsa::kNeon) {
    const uint8x16_t group = vld1q_u8(ctrl);
    const uint8x16_t top = vtstq_u8(group, vdupq_n_u8(0x80));
    const uint8x8_t nib = vshrn_n_u16(vreinterpretq_u16_u8(top), 4);
    std::uint64_t m = vget_lane_u64(vreinterpret_u64_u8(nib), 0);
    m &= 0x1111111111111111ULL;
    std::uint32_t out = 0;
    while (m != 0) {
      out |= 1u << (std::countr_zero(m) >> 2);
      m &= m - 1;
    }
    return out;
  }
#endif
  (void)isa;
  std::uint32_t out = 0;
  for (std::size_t j = 0; j < kGroupWidth; ++j) {
    if ((ctrl[j] & 0x80u) != 0) out |= 1u << j;
  }
  return out;
}

/// Group index (h1, top `group_bits` of the mixed hash) and 7-bit tag
/// (h2, low bits) — disjoint slices of one multiply, so the tag carries
/// information the group index does not.
[[nodiscard]] inline std::uint64_t swiss_h1(lnkey_t key, int group_bits) {
  return (key * 0x9e3779b97f4a7c15ULL) >> (64 - group_bits);
}
[[nodiscard]] inline std::uint8_t swiss_h2(lnkey_t key) {
  return static_cast<std::uint8_t>((key * 0x9e3779b97f4a7c15ULL) & 0x7f);
}

/// Smallest group count (power of two) whose 7/8-load capacity holds
/// `keys` entries.
[[nodiscard]] inline int swiss_group_bits_for(std::size_t keys) {
  int bits = 1;
  while (bits < 27 &&
         ((std::size_t{1} << bits) * kGroupWidth * 7) / 8 < keys) {
    ++bits;
  }
  return bits;
}

}  // namespace detail

/// Swiss-table HtY: LN contract key -> the run of (free key, value)
/// items sharing it, mirroring GroupedHashMap's whole surface so
/// YPlan/contract can hold either behind one generic code path.
///
/// Built in one pass from HtyRuns: the slot array is sized from the
/// distinct-key count (≤ 7/8 load), so it never grows, and every key is
/// entered exactly once into a 16-byte {key, begin, count} slot. Keys
/// enter in ascending order, so slot placement — and therefore
/// for_each_group order — depends only on the key set, not on the
/// thread count that built the runs.
class SwissYMap {
 public:
  explicit SwissYMap(HtyRuns runs)
      : group_bits_(detail::swiss_group_bits_for(runs.runs.size())),
        items_(std::move(runs.items)),
        max_group_(runs.max_run) {
    const std::size_t slots = num_groups() * kGroupWidth;
    ctrl_.assign(slots, kCtrlEmpty);
    slots_.resize(slots);
    const SimdIsa isa = active_isa();
    const std::uint64_t group_mask = num_groups() - 1;
    for (const KeyRun& r : runs.runs) {
      // Keys are distinct, so a new key takes the first free slot of its
      // probe sequence without looking for an existing match.
      SPARTA_ASSERT(&r == runs.runs.data() || (&r - 1)->key < r.key);
      std::uint64_t g = detail::swiss_h1(r.key, group_bits_);
      std::size_t steps = 1;
      std::uint32_t free_mask = 0;
      while ((free_mask = detail::group_match_free(
                  ctrl_.data() + g * kGroupWidth, isa)) == 0) {
        g = (g + 1) & group_mask;
        ++steps;
      }
      const std::size_t s =
          g * kGroupWidth +
          static_cast<std::size_t>(std::countr_zero(free_mask));
      ctrl_[s] = detail::swiss_h2(r.key);
      slots_[s] = r;
      ++size_;
      SPARTA_COUNTER_ADD("simd.swiss_hty.insert_steps", steps);
    }
    SPARTA_COUNTER_ADD("simd.swiss_hty.inserts", items_.size());
  }

  /// Items for `key`, or an empty span when absent.
  [[nodiscard]] std::span<const FreeItem> find(lnkey_t key) const {
    const SimdIsa isa = active_isa();
    const std::uint8_t tag = detail::swiss_h2(key);
    const std::uint64_t group_mask = num_groups() - 1;
    std::uint64_t g = detail::swiss_h1(key, group_bits_);
    std::size_t steps = 0;
    while (true) {
      ++steps;
      const std::uint8_t* ctrl = ctrl_.data() + g * kGroupWidth;
      for (std::uint32_t m = detail::group_match(ctrl, tag, isa); m != 0;
           m &= m - 1) {
        const std::size_t s =
            g * kGroupWidth + static_cast<std::size_t>(std::countr_zero(m));
        if (slots_[s].key == key) {
          count_probe(steps);
          return items_of(slots_[s]);
        }
      }
      if (detail::group_match(ctrl, kCtrlEmpty, isa) != 0) {
        count_probe(steps);
        return {};
      }
      g = (g + 1) & group_mask;
    }
  }

  [[nodiscard]] std::size_t num_keys() const { return size_; }

  [[nodiscard]] std::size_t num_items() const { return items_.size(); }

  /// Size of the largest group — the paper's nnz_Fmax^Y (Eq. 6 bound).
  [[nodiscard]] std::size_t max_group_size() const { return max_group_; }

  [[nodiscard]] std::size_t num_buckets() const { return slots_.size(); }

  /// Measured heap footprint (ctrl bytes + slots + items).
  [[nodiscard]] std::size_t footprint_bytes() const {
    return ctrl_.capacity() + slots_.capacity() * sizeof(KeyRun) +
           items_.capacity() * sizeof(FreeItem);
  }

  /// Visits every (key, items) group in slot order — fixed by the key
  /// set, identical across ISA tiers and build thread counts.
  template <typename F>
  void for_each_group(F&& f) const {
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if ((ctrl_[s] & 0x80u) == 0) f(slots_[s].key, items_of(slots_[s]));
    }
  }

 private:
  [[nodiscard]] std::size_t num_groups() const {
    return std::size_t{1} << group_bits_;
  }

  [[nodiscard]] std::span<const FreeItem> items_of(const KeyRun& r) const {
    return {items_.data() + r.begin, r.count};
  }

  // Same shape as the chained HtY's telemetry, under simd.* names so
  // the two tables are distinguishable in one metrics dump. `steps`
  // counts 16-wide groups probed, not individual slots.
  static void count_probe(std::size_t steps) {
    SPARTA_COUNTER_ADD("simd.swiss_hty.probes", 1);
    SPARTA_COUNTER_ADD("simd.swiss_hty.probe_steps", steps);
    SPARTA_HISTOGRAM_RECORD("simd.swiss_hty.probe_len", steps);
  }

  int group_bits_;
  std::size_t size_ = 0;
  std::vector<std::uint8_t> ctrl_;
  std::vector<KeyRun> slots_;
  std::vector<FreeItem> items_;
  std::size_t max_group_;
};

/// Swiss-table sparse accumulator (HtA/SPA): flat (key, value) slots
/// probed by 16-wide tag compare. Same accumulate/drain/clear surface
/// as HashAccumulator and LinearProbeAccumulator; additionally supports
/// erase(), which leaves a tombstone so later probes for keys that
/// passed through the slot still terminate correctly.
class SwissAccumulator {
 public:
  explicit SwissAccumulator(std::size_t expected_keys = 64) {
    group_bits_ = detail::swiss_group_bits_for(expected_keys);
    const std::size_t slots = num_groups() * kGroupWidth;
    ctrl_.assign(slots, kCtrlEmpty);
    slots_.assign(slots, Slot{});
  }

  void accumulate(lnkey_t key, value_t v) {
    SPARTA_ASSERT(key != kReservedKey);
    const SimdIsa isa = active_isa();
    const std::uint8_t tag = detail::swiss_h2(key);
    const std::uint64_t group_mask = num_groups() - 1;
    std::uint64_t g = detail::swiss_h1(key, group_bits_);
    std::size_t steps = 0;
    // First tombstone on the probe path: reusable insert position, but
    // only once the key is proven absent (an empty group ends probing).
    std::size_t tombstone = kNoSlot;
    while (true) {
      ++steps;
      const std::uint8_t* ctrl = ctrl_.data() + g * kGroupWidth;
      for (std::uint32_t m = detail::group_match(ctrl, tag, isa); m != 0;
           m &= m - 1) {
        const std::size_t s =
            g * kGroupWidth + static_cast<std::size_t>(std::countr_zero(m));
        if (slots_[s].key == key) {
          count_probe(steps);
          slots_[s].val += v;
          return;
        }
      }
      if (tombstone == kNoSlot) {
        const std::uint32_t dm = detail::group_match(ctrl, kCtrlDeleted, isa);
        if (dm != 0) {
          tombstone = g * kGroupWidth +
                      static_cast<std::size_t>(std::countr_zero(dm));
        }
      }
      const std::uint32_t em = detail::group_match(ctrl, kCtrlEmpty, isa);
      if (em != 0) {
        std::size_t s = tombstone;
        if (s == kNoSlot) {
          // Growth watches occupied = full + tombstones: probe chains
          // terminate on empty slots, so tombstones count against load.
          if ((occupied_ + 1) * 8 > slots_.size() * 7) {
            grow();
            accumulate(key, v);
            return;
          }
          s = g * kGroupWidth +
              static_cast<std::size_t>(std::countr_zero(em));
          ++occupied_;
        }
        count_probe(steps);
        ctrl_[s] = tag;
        slots_[s].key = key;
        slots_[s].val = v;
        ++size_;
        return;
      }
      g = (g + 1) & group_mask;
    }
  }

  /// Removes `key` if present, leaving a tombstone. Returns whether a
  /// live entry was removed.
  bool erase(lnkey_t key) {
    const SimdIsa isa = active_isa();
    const std::uint8_t tag = detail::swiss_h2(key);
    const std::uint64_t group_mask = num_groups() - 1;
    std::uint64_t g = detail::swiss_h1(key, group_bits_);
    while (true) {
      const std::uint8_t* ctrl = ctrl_.data() + g * kGroupWidth;
      for (std::uint32_t m = detail::group_match(ctrl, tag, isa); m != 0;
           m &= m - 1) {
        const std::size_t s =
            g * kGroupWidth + static_cast<std::size_t>(std::countr_zero(m));
        if (slots_[s].key == key) {
          ctrl_[s] = kCtrlDeleted;  // occupied_ unchanged: still blocks
          slots_[s] = Slot{};
          --size_;
          return true;
        }
      }
      if (detail::group_match(ctrl, kCtrlEmpty, isa) != 0) return false;
      g = (g + 1) & group_mask;
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t num_buckets() const { return slots_.size(); }

  [[nodiscard]] std::size_t footprint_bytes() const {
    return ctrl_.capacity() + slots_.capacity() * sizeof(Slot);
  }

  /// Visits live entries in slot order — fixed by insertion history,
  /// identical across ISA tiers (the FP-determinism linchpin: drain
  /// order is accumulation order downstream).
  template <typename F>
  void drain(F&& f) const {
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if ((ctrl_[s] & 0x80u) == 0) f(slots_[s].key, slots_[s].val);
    }
  }

  /// Empties the table (tombstones included), keeping capacity. Only
  /// the control bytes are reset: probes and drains read a slot only
  /// after its control byte marks it full, and an insert writes both.
  void clear() {
    std::fill(ctrl_.begin(), ctrl_.end(), kCtrlEmpty);
    size_ = 0;
    occupied_ = 0;
  }

 private:
  // LinearProbeAccumulator's reserved sentinel; kept out of the key
  // space here too so the two accumulators stay interchangeable.
  static constexpr lnkey_t kReservedKey = std::numeric_limits<lnkey_t>::max();
  static constexpr std::size_t kNoSlot =
      std::numeric_limits<std::size_t>::max();

  struct Slot {
    lnkey_t key = 0;
    value_t val = 0;
  };

  [[nodiscard]] std::size_t num_groups() const {
    return std::size_t{1} << group_bits_;
  }

  void grow() {
    SPARTA_COUNTER_ADD("simd.swiss_hta.grows", 1);
    std::vector<std::uint8_t> old_ctrl;
    std::vector<Slot> old_slots;
    old_ctrl.swap(ctrl_);
    old_slots.swap(slots_);
    ++group_bits_;
    const std::size_t slots = num_groups() * kGroupWidth;
    ctrl_.assign(slots, kCtrlEmpty);
    slots_.assign(slots, Slot{});
    size_ = 0;
    occupied_ = 0;  // rehash drops tombstones
    const SimdIsa isa = active_isa();
    const std::uint64_t group_mask = num_groups() - 1;
    for (std::size_t s = 0; s < old_slots.size(); ++s) {
      if ((old_ctrl[s] & 0x80u) != 0) continue;
      const lnkey_t key = old_slots[s].key;
      std::uint64_t g = detail::swiss_h1(key, group_bits_);
      while (true) {
        const std::uint8_t* ctrl = ctrl_.data() + g * kGroupWidth;
        const std::uint32_t free_mask = detail::group_match_free(ctrl, isa);
        if (free_mask != 0) {
          const std::size_t d =
              g * kGroupWidth +
              static_cast<std::size_t>(std::countr_zero(free_mask));
          ctrl_[d] = detail::swiss_h2(key);
          slots_[d] = old_slots[s];
          ++size_;
          ++occupied_;
          break;
        }
        g = (g + 1) & group_mask;
      }
    }
  }

  static void count_probe(std::size_t steps) {
    SPARTA_COUNTER_ADD("simd.swiss_hta.accumulates", 1);
    SPARTA_COUNTER_ADD("simd.swiss_hta.probe_steps", steps);
    SPARTA_HISTOGRAM_RECORD("simd.swiss_hta.probe_len", steps);
  }

  int group_bits_ = 1;
  std::size_t size_ = 0;      ///< live entries
  std::size_t occupied_ = 0;  ///< live + tombstoned (load-factor input)
  std::vector<std::uint8_t> ctrl_;
  std::vector<Slot> slots_;
};

}  // namespace sparta::simd
