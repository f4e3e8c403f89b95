// The engine's hash tables: HtY (SwissYMap, paper §3.3) and HtA
// (SwissAccumulator, §3.4), flat open-addressing tables with SIMD group
// probing, plus the sort-based HtY build (group_by_key) that feeds
// SwissYMap.
//
// Layout: one control byte per slot (empty 0x80, else the low 7 bits
// of the hash as a tag) plus a parallel slot array. Probing loads a
// 16-byte control group and compares all 16 tags in one vector op
// (_mm_cmpeq_epi8 on x86, vceqq_u8 on aarch64); a miss costs one cache
// line of metadata instead of one chained-bucket pointer chase per
// step. The scalar fallback walks the same 16-slot groups in the same
// ascending slot order, so every tier picks identical slots and
// therefore accumulates floating point in an identical order — forcing
// SPARTA_SIMD=scalar is bit-exact, the invariant the isa-matrix CI job
// and `fuzz_sptc --isa-diff` enforce. Entries are never erased, so
// there are no tombstones.
//
// The paper's chained HtY survives only as a reference
// (hashtable/grouped_map.hpp); docs/SIMD.md covers the dispatch rules.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/parallel.hpp"
#include "common/uninit_vector.hpp"
#include "obs/metrics.hpp"
#include "simd/dispatch.hpp"
#include "simd/sort.hpp"
#include "tensor/types.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace sparta {

/// One Y non-zero as seen by the accumulation stage: its free-mode LN key
/// and value.
struct FreeItem {
  lnkey_t free_key;
  value_t val;
};

/// One key's items: HtyRuns::items[begin, begin + count).
struct KeyRun {
  lnkey_t key;
  std::uint32_t begin;
  std::uint32_t count;
};

/// HtY's content in flat form: the items of each distinct key form one
/// contiguous run, in input order; `runs` ascend by key, one per key.
/// SwissYMap is built from this (group_by_key makes it).
struct HtyRuns {
  UninitVector<FreeItem> items;
  std::vector<KeyRun> runs;
  std::size_t max_run = 0;  ///< largest run: the paper's nnz_Fmax^Y
};

/// HtY's bulk build (paper §3.3 stage ①, sort-based) over `n` Y
/// non-zeros. fill(b, e, keys, items) writes, for each i in [b, e),
/// keys[i] = (a contract key, i) and items[i] = that non-zero's item.
/// Neither array, nor the gathered items, is zero-filled first: the
/// team's fill and gather passes touch them first.
/// The pairs are stably sorted by key, and items[position] is gathered
/// into one contiguous run per distinct key, in input order, so the
/// result is the same at any thread count. One
/// simd::sort_ln_pairs_team() runs the fill and the sort on `nthreads`
/// threads, or on one for small inputs (team_size()); the gather, with
/// the run starts found inside each sorted range, follows on the same
/// team once the sort has freed its scratch, so at most three arrays of
/// n pairs (keys, items, gathered items; 48 bytes per non-zero) are
/// live at once. The calling thread then joins the ranges' runs in
/// order. `key_bits` bounds the keys' width; `cancel` is polled, and
/// the `plan.build` failpoint evaluated, before each block of the fill
/// (and `sort.radix_pass` in the sort).
template <typename Fill>
[[nodiscard]] HtyRuns group_by_key(std::size_t n, int key_bits, int nthreads,
                                   const CancelToken& cancel, Fill&& fill) {
  SPARTA_CHECK(n <= std::numeric_limits<std::uint32_t>::max(),
               "HtY holds at most 2^32 - 1 items, got " + std::to_string(n));
  UninitVector<simd::KeyPos> keys(n);
  UninitVector<FreeItem> items(n);
  // Range d of the sort: [range_begin[d], range_end[d]), and how many
  // pairs after its first start a run.
  std::array<std::size_t, 256> range_begin{};
  std::array<std::size_t, 256> range_end{};
  std::array<std::size_t, 256> range_starts{};
  const int team = team_size(n, nthreads);
  simd::sort_ln_pairs_team(
      keys, key_bits, team, cancel,
      [&](std::size_t b, std::size_t e) {
        SPARTA_FAILPOINT("plan.build");
        cancel.check("plan.build");
        fill(b, e, keys.data(), items.data());
      },
      [&](std::size_t d, std::size_t b, std::size_t e) {
        range_begin[d] = b;
        range_end[d] = e;
      });

  HtyRuns out;
  out.items.resize(n);
  // The pairs after a range's first that start a run go, in order, into
  // the range's own position slots, which its gather has finished
  // reading. Empty ranges (b == e) are skipped.
  auto gather = [&](std::size_t d) {
    const std::size_t b = range_begin[d];
    const std::size_t e = range_end[d];
    for (std::size_t j = b; j < e; ++j) {
      out.items[j] = items[keys[j].second];
    }
    std::size_t c = 0;
    for (std::size_t j = b + 1; j < e; ++j) {
      if (keys[j].first != keys[j - 1].first) {
        keys[b + c++].second = static_cast<std::uint32_t>(j);
      }
    }
    range_starts[d] = c;
  };
  if (team > 1) {
#pragma omp parallel for schedule(dynamic, 1) num_threads(team)
    for (int d = 0; d < 256; ++d) gather(static_cast<std::size_t>(d));
  } else {
    gather(0);
  }
  // Freed before the runs are joined. (`items = {}` would keep the
  // capacity: it assigns from an empty initializer_list.)
  items = UninitVector<FreeItem>();

  std::size_t total = 0;
  for (std::size_t d = 0; d < 256; ++d) total += range_starts[d] + 1;
  out.runs.reserve(total);
  auto add_run = [&](std::size_t j) {
    out.runs.push_back({keys[j].first, static_cast<std::uint32_t>(j), 0});
  };
  for (std::size_t d = 0; d < 256; ++d) {
    const std::size_t b = range_begin[d];
    if (b == range_end[d]) continue;
    if (b == 0 || keys[b].first != keys[b - 1].first) add_run(b);
    for (std::size_t c = 0; c < range_starts[d]; ++c) {
      add_run(keys[b + c].second);
    }
  }
  // Each run ends where the next begins.
  for (std::size_t r = 0; r < out.runs.size(); ++r) {
    const std::size_t end =
        r + 1 < out.runs.size() ? out.runs[r + 1].begin : n;
    out.runs[r].count = static_cast<std::uint32_t>(end - out.runs[r].begin);
    out.max_run = std::max<std::size_t>(out.max_run, out.runs[r].count);
  }
  return out;
}

}  // namespace sparta

namespace sparta::simd {

/// Slots per control group — one 128-bit vector compare. Fixed across
/// all tiers (including scalar) so probe sequences are ISA-independent.
inline constexpr std::size_t kGroupWidth = 16;

/// Control byte of an empty slot. Full slots store a 7-bit tag (top bit
/// clear), so one vector equality against a tag never matches empty.
inline constexpr std::uint8_t kCtrlEmpty = 0x80;

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

/// Slots of a table sized for `keys` entries: the bucket count the
/// Eq. 5/6 pre-flight estimates use.
[[nodiscard]] inline std::size_t swiss_slots_for(std::size_t keys) {
  return (std::size_t{1} << swiss_group_bits_for(keys)) * kGroupWidth;
}

/// First empty slot on `key`'s probe sequence in a table of
/// 2^group_bits groups (the key is known to be absent).
[[nodiscard]] inline std::size_t first_empty_slot(const std::uint8_t* ctrl,
                                                  lnkey_t key, int group_bits,
                                                  SimdIsa isa,
                                                  std::size_t& steps) {
  const std::uint64_t group_mask = (std::uint64_t{1} << group_bits) - 1;
  std::uint64_t g = swiss_h1(key, group_bits);
  steps = 1;
  std::uint32_t em = 0;
  while ((em = group_match(ctrl + g * kGroupWidth, kCtrlEmpty, isa)) == 0) {
    g = (g + 1) & group_mask;
    ++steps;
  }
  return g * kGroupWidth + static_cast<std::size_t>(std::countr_zero(em));
}

}  // namespace detail

/// Swiss-table HtY: LN contract key -> the run of (free key, value)
/// items sharing it.
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
    slots_.resize(slots);  // unwritten: an empty slot is never read
    const SimdIsa isa = active_isa();
    for (const KeyRun& r : runs.runs) {
      // Keys are distinct, so a new key takes the first empty slot of
      // its probe sequence without looking for an existing match.
      SPARTA_ASSERT(&r == runs.runs.data() || (&r - 1)->key < r.key);
      std::size_t steps = 0;
      const std::size_t s = detail::first_empty_slot(
          ctrl_.data(), r.key, group_bits_, isa, steps);
      ctrl_[s] = detail::swiss_h2(r.key);
      slots_[s] = r;
      SPARTA_COUNTER_ADD("hty.insert_steps", steps);
    }
    size_ = runs.runs.size();
    SPARTA_COUNTER_ADD("hty.inserts", items_.size());
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

  /// Measured heap footprint (ctrl bytes + slots + items), the quantity
  /// Eq. 5 estimates for DRAM placement.
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

  // HtY probe telemetry (docs/OBSERVABILITY.md). `steps` counts 16-wide
  // groups probed, not individual slots.
  static void count_probe(std::size_t steps) {
    SPARTA_COUNTER_ADD("hty.probes", 1);
    SPARTA_COUNTER_ADD("hty.probe_steps", steps);
    SPARTA_HISTOGRAM_RECORD("hty.probe_len", steps);
  }

  int group_bits_;
  std::size_t size_ = 0;
  std::vector<std::uint8_t> ctrl_;
  UninitVector<KeyRun> slots_;
  UninitVector<FreeItem> items_;
  std::size_t max_group_;
};

/// Swiss-table sparse accumulator (HtA): LN free key -> running sum.
///
/// The (key, value) entries live densely in insertion order; a full
/// slot holds its entry's 4-byte index, and each entry remembers its
/// slot. drain() and clear() therefore walk the entries, not the slots:
/// O(size) however large the table has grown. Drain order is insertion
/// order — fixed by the accumulate() sequence alone, identical across
/// ISA tiers, thread counts and table sizes.
class SwissAccumulator {
 public:
  explicit SwissAccumulator(std::size_t expected_keys = 64)
      : group_bits_(detail::swiss_group_bits_for(expected_keys)),
        ctrl_(num_groups() * kGroupWidth, kCtrlEmpty),
        index_(ctrl_.size()) {}

  /// Adds `v` to the entry for `key`, inserting it when absent.
  void accumulate(lnkey_t key, value_t v) {
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
        Entry& e = entries_[index_[g * kGroupWidth +
                                   static_cast<std::size_t>(
                                       std::countr_zero(m))]];
        if (e.key == key) {
          count_probe(steps);
          e.val += v;
          return;
        }
      }
      const std::uint32_t em = detail::group_match(ctrl, kCtrlEmpty, isa);
      if (em != 0) {
        if ((entries_.size() + 1) * 8 > ctrl_.size() * 7) {
          grow();
          accumulate(key, v);
          return;
        }
        count_probe(steps);
        const std::size_t s =
            g * kGroupWidth + static_cast<std::size_t>(std::countr_zero(em));
        ctrl_[s] = tag;
        index_[s] = static_cast<std::uint32_t>(entries_.size());
        entries_.push_back({key, v, static_cast<std::uint32_t>(s)});
        return;
      }
      g = (g + 1) & group_mask;
    }
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t num_buckets() const { return ctrl_.size(); }

  /// Heap footprint; the quantity bounded by Eq. 6 for DRAM placement.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return ctrl_.capacity() + index_.capacity() * sizeof(index_[0]) +
           entries_.capacity() * sizeof(Entry);
  }

  /// Visits each (key, value) pair in insertion order. O(size).
  template <typename F>
  void drain(F&& f) const {
    for (const Entry& e : entries_) f(e.key, e.val);
  }

  /// Empties the table, keeping its capacity for reuse. O(size): only
  /// the entries' own control bytes are reset.
  void clear() {
    for (const Entry& e : entries_) ctrl_[e.slot] = kCtrlEmpty;
    entries_.clear();
  }

 private:
  struct Entry {
    lnkey_t key;
    value_t val;
    std::uint32_t slot;
  };

  [[nodiscard]] std::size_t num_groups() const {
    return std::size_t{1} << group_bits_;
  }

  // Doubles the groups and re-enters every entry in insertion order;
  // the entries themselves do not move.
  void grow() {
    SPARTA_COUNTER_ADD("hta.grows", 1);
    SPARTA_CHECK(group_bits_ < 27, "swiss HtA exceeds 2^31 slots");
    ++group_bits_;
    ctrl_.assign(num_groups() * kGroupWidth, kCtrlEmpty);
    index_.resize(ctrl_.size());
    const SimdIsa isa = active_isa();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      Entry& e = entries_[i];
      std::size_t steps = 0;
      const std::size_t s = detail::first_empty_slot(ctrl_.data(), e.key,
                                                     group_bits_, isa, steps);
      ctrl_[s] = detail::swiss_h2(e.key);
      index_[s] = static_cast<std::uint32_t>(i);
      e.slot = static_cast<std::uint32_t>(s);
    }
  }

  // HtA probe telemetry (docs/OBSERVABILITY.md), in 16-wide groups.
  static void count_probe(std::size_t steps) {
    SPARTA_COUNTER_ADD("hta.accumulates", 1);
    SPARTA_COUNTER_ADD("hta.probe_steps", steps);
    SPARTA_HISTOGRAM_RECORD("hta.probe_len", steps);
  }

  int group_bits_;
  std::vector<std::uint8_t> ctrl_;
  std::vector<std::uint32_t> index_;  ///< full slot -> its entry
  std::vector<Entry> entries_;        ///< insertion order
};

}  // namespace sparta::simd
