#include "contraction/contract.hpp"

#include "contraction/plan.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/parallel.hpp"
#include "contraction/estimators.hpp"
#include "contraction/writeback.hpp"
#include "memsim/allocator.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/sort.hpp"
#include "simd/swiss_table.hpp"
#include "tensor/linearize.hpp"

namespace sparta {

using engine::HtaPolicy;
using engine::PerfScope;
using engine::SpaPolicy;
using engine::ThreadTimes;

Modes free_modes(const SparseTensor& t, const Modes& modes,
                 const char* which) {
  SPARTA_CHECK(!modes.empty(), "need at least one contract mode");
  std::vector<bool> is_contract(static_cast<std::size_t>(t.order()), false);
  for (int m : modes) {
    SPARTA_CHECK(m >= 0 && m < t.order(),
                 std::string(which) + ": contract mode out of range");
    SPARTA_CHECK(!is_contract[static_cast<std::size_t>(m)],
                 std::string(which) + ": duplicate contract mode");
    is_contract[static_cast<std::size_t>(m)] = true;
  }
  Modes free;
  for (int m = 0; m < t.order(); ++m) {
    if (!is_contract[static_cast<std::size_t>(m)]) free.push_back(m);
  }
  return free;
}

namespace {

ModeSplit checked_split(Modes fx, Modes fy) {
  SPARTA_CHECK(!fx.empty() || !fy.empty(),
               "full contraction to a scalar needs at least one free mode");
  return ModeSplit{std::move(fx), std::move(fy)};
}

}  // namespace

ModeSplit validate_modes(const SparseTensor& x, const SparseTensor& y,
                         const Modes& cx, const Modes& cy) {
  SPARTA_CHECK(cx.size() == cy.size(),
               "contract mode lists must have equal arity");
  Modes fx = free_modes(x, cx, "cx");
  Modes fy = free_modes(y, cy, "cy");
  for (std::size_t i = 0; i < cx.size(); ++i) {
    SPARTA_CHECK(x.dim(cx[i]) == y.dim(cy[i]),
                 "contract mode sizes must match (X mode " +
                     std::to_string(cx[i]) + " vs Y mode " +
                     std::to_string(cy[i]) + ")");
  }
  return checked_split(std::move(fx), std::move(fy));
}

ModeSplit validate_plan_modes(const SparseTensor& x, const YPlan& plan,
                              const Modes& cx) {
  SPARTA_CHECK(cx.size() == plan.cy().size(),
               "cx arity must match the plan's contract modes");
  Modes fx = free_modes(x, cx, "cx");
  for (std::size_t i = 0; i < cx.size(); ++i) {
    SPARTA_CHECK(x.dim(cx[i]) == plan.contract_dims()[i],
                 "contract mode sizes must match the plan");
  }
  return checked_split(std::move(fx), plan.fy());
}

namespace {

// ---------------------------------------------------------------------
// Shared preparation
// ---------------------------------------------------------------------

// X permuted to [free..., contract...] and sorted, with sub-tensor
// boundaries over the free-mode prefix (prefix_starts, the paper's
// ptr_F), in one fused parallel pass.
SortedCopy prepare_x(const SparseTensor& x, const Modes& fx, const Modes& cx,
                     int nthreads, const CancelToken& cancel) {
  Modes order = fx;
  order.insert(order.end(), cx.begin(), cx.end());
  return sorted_permuted_copy(x, order, fx.size(), nthreads, cancel,
                              "contract.input");
}

// Y permuted to [contract..., free...] and sorted (COO variants only),
// on the calling thread: the COO search over this copy dominates these
// variants' time, and in a service running requests side by side the
// copy's team regions waited at barriers for descheduled threads.
// serve_repeated_y's setup, whose warm-up runs 16 COO requests on a
// 60k–150k-nnz Y, took 1.6–1.9 s with a 2-thread copy and 1.0–1.2 s
// with one (4-vCPU VM).
SparseTensor prepare_y_coo(const SparseTensor& y, const Modes& cy,
                           const Modes& fy, const CancelToken& cancel) {
  Modes order = cy;
  order.insert(order.end(), fy.begin(), fy.end());
  return sorted_permuted_copy(y, order, 0, 1, cancel, "contract.input").t;
}

std::vector<index_t> gather_dims(const SparseTensor& t, const Modes& modes) {
  std::vector<index_t> d;
  d.reserve(modes.size());
  for (int m : modes) d.push_back(t.dim(m));
  return d;
}

// ---------------------------------------------------------------------
// Stage ② Y-access policies: iterate sorted COO, or locate in HtY
// ---------------------------------------------------------------------
//
// The two capabilities of Chou et al.'s format abstraction. A policy
// maps one X non-zero's contract tuple to the Y items it matches, then
// hands those items to an accumulator policy:
//   Match find(ctuple, scanned)        — Match has empty() and size();
//                                        `scanned` adds the Y rows the
//                                        search touched (COO only)
//   accumulate(match, xval, acc, fyc)  — one acc.add(...) per item

// Rows [begin, end) of sorted Y whose contract columns match a tuple.
struct RowRange {
  std::size_t begin;
  std::size_t end;
  [[nodiscard]] bool empty() const { return begin == end; }
  [[nodiscard]] std::size_t size() const { return end - begin; }
};

// End of the run of rows from `begin` whose m leading (contract) index
// columns equal `target`.
std::size_t run_end(const SparseTensor& y, std::size_t m,
                    std::span<const index_t> target, std::size_t begin) {
  const std::size_t n = y.nnz();
  std::size_t e = begin;
  for (; e < n; ++e) {
    for (std::size_t k = 0; k < m; ++k) {
      if (y.index(e, static_cast<int>(k)) != target[k]) return e;
    }
  }
  return e;
}

// Scans Y's non-zeros from the start, comparing the m leading (contract)
// index columns lexicographically, until the run matching `target` is
// found or passed (Y is sorted, so passing means absent). O(nnz_Y) —
// deliberately the baseline cost. Adds the rows up to the run's end to
// `scanned`. Rows below target[0] in the leading column are skipped by
// a one-compare loop, and the other columns are read only on a tie. At
// each of four code alignments tried, that ran 1.1–2.8× faster than
// comparing the m columns in turn for every row (one thread, 150 000-row
// Y, 4-vCPU VM). The function is pinned to a 64-byte boundary, so edits
// elsewhere in the library do not move its loop: after a 1.1 kB change
// in another object shifted it from 32 to 48 mod 64, serve_repeated_y's
// set-up, 16 COO requests on 60k–150k-row Ys, read 1.0 → 1.55 s; pinned,
// 0.84–0.96 s against the unshifted build's 0.94–1.02 s.
[[gnu::aligned(64)]] RowRange coo_linear_search(const SparseTensor& y,
                                                std::size_t m,
                                                std::span<const index_t> target,
                                                std::uint64_t& scanned) {
  const std::span<const index_t> lead = y.mode_indices(0);
  const std::size_t n = lead.size();
  std::size_t i = 0;
  for (; i < n; ++i) {
    const index_t v = lead[i];
    if (v < target[0]) continue;
    int cmp = v == target[0] ? 0 : 1;
    for (std::size_t k = 1; cmp == 0 && k < m; ++k) {
      const index_t yi = y.index(i, static_cast<int>(k));
      if (yi != target[k]) cmp = yi < target[k] ? -1 : 1;
    }
    if (cmp == 0) break;  // found the start of the run
    if (cmp > 0) {        // passed it: absent
      scanned += i;
      return {i, i};
    }
  }
  const std::size_t e = run_end(y, m, target, i);
  scanned += e;
  return {i, e};
}

// O(log nnz_Y) binary search for the run matching `target` — the
// kCooBinary extension sitting between the linear scan and the HtY
// probe. Adds the rows it compared, plus the matched run, to `scanned`.
RowRange coo_binary_search(const SparseTensor& y, std::size_t m,
                           std::span<const index_t> target,
                           std::uint64_t& scanned) {
  auto row_less_than_target = [&](std::size_t row) {
    for (std::size_t k = 0; k < m; ++k) {
      const index_t yi = y.index(row, static_cast<int>(k));
      if (yi != target[k]) return yi < target[k];
    }
    return false;
  };
  std::size_t lo = 0, hi = y.nnz();
  while (lo < hi) {
    ++scanned;
    const std::size_t mid = lo + (hi - lo) / 2;
    if (row_less_than_target(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const std::size_t e = run_end(y, m, target, lo);
  scanned += e - lo;
  return {lo, e};
}

// Iterate: search Y's sorted COO (linear scan, or binary with kBinary).
// Each matched row's free indices reach the accumulator as a tuple, so
// an HtA pays the index→LN conversion per item — exactly the cost
// HtY's precomputed free keys avoid.
template <bool kBinary>
struct CooIterate {
  const SparseTensor& y;  // [contract..., free...], sorted
  std::size_t m;          // contract columns
  std::size_t nfy;        // free columns
  using Match = RowRange;

  Match find(std::span<const index_t> ctuple, std::uint64_t& scanned) const {
    return kBinary ? coo_binary_search(y, m, ctuple, scanned)
                   : coo_linear_search(y, m, ctuple, scanned);
  }

  template <typename Acc>
  void accumulate(Match rows, value_t xval, Acc& acc,
                  std::span<index_t> fyc) const {
    for (std::size_t j = rows.begin; j < rows.end; ++j) {
      for (std::size_t k = 0; k < nfy; ++k) {
        fyc[k] = y.index(j, static_cast<int>(m + k));
      }
      acc.add(std::span<const index_t>(fyc.data(), nfy), xval * y.value(j));
    }
  }
};

// Locate: probe HtY with the tuple's LN key; each matched item carries
// the free LN key computed when HtY was built.
struct HtyLocate {
  const simd::SwissYMap& hty;
  const LinearIndexer& clin;
  using Match = std::span<const FreeItem>;

  Match find(std::span<const index_t> ctuple,
             std::uint64_t& /*scanned*/) const {
    return hty.find(clin.linearize(ctuple));
  }

  template <typename Acc>
  void accumulate(Match items, value_t xval, Acc& acc,
                  std::span<index_t> /*fyc*/) const {
    for (const FreeItem& it : items) acc.add(it.free_key, xval * it.val);
  }
};

// ---------------------------------------------------------------------
// Access-profile synthesis (memsim substrate; DESIGN.md §2)
// ---------------------------------------------------------------------

// 16-byte pairs: (LN key, position) in the sorts, (key, value) in
// Z_local and ⑤'s buffers.
constexpr std::uint64_t kPairBytes = 16;

// A stable LSD radix sort of n pairs: each pass, one per key byte,
// reads them in order and scatters them to 256 sequential streams.
void add_radix_traffic(AccessStats& s, std::uint64_t n, int key_bits) {
  const auto passes = static_cast<std::uint64_t>((key_bits + 7) / 8);
  s.bytes_read_seq += n * kPairBytes * passes;
  s.bytes_written_seq += n * kPairBytes * passes;
}

// A gather of n elements of `bytes` each at sorted positions: the
// random fetches hit whole cache lines, hence the /8 on access counts.
void add_gather_traffic(AccessStats& s, std::uint64_t n,
                        std::uint64_t bytes) {
  s.bytes_read_rand += n * bytes / 4;
  s.rand_reads += n / 8;
  s.bytes_written_seq += n * bytes;
}

// The fused sorted copy of n rows of `row_bytes` (sorted_permuted_copy):
// a key pass reads the columns once and writes one pair per row, the
// pairs are radix-sorted, and the gather reads them in order, fetches
// each source row at its position and writes the sorted columns.
void add_sorted_copy_traffic(AccessStats& s, std::uint64_t n,
                             std::uint64_t row_bytes, int key_bits) {
  s.bytes_read_seq += n * row_bytes;
  s.bytes_written_seq += n * kPairBytes;
  add_radix_traffic(s, n, key_bits);
  s.bytes_read_seq += n * kPairBytes;
  add_gather_traffic(s, n, row_bytes);
}

// Significant bits of LN keys over `dims` (64 when they overflow it).
int ln_key_bits(std::span<const index_t> dims) {
  if (!ln_space_fits(dims)) return 64;
  lnkey_t size = 1;
  for (index_t d : dims) size *= d;
  return simd::significant_bits(size - 1);
}

struct ProfileInputs {
  Algorithm alg;
  std::size_t x_row_bytes;
  std::size_t y_contract_bytes;  // bytes of contract columns per Y element
  std::size_t y_row_bytes;
  std::size_t z_row_bytes;
  std::uint64_t scanned_y_elements;  // Y rows the COO searches touched
  bool sorted;                       // stage ⑤ ran
  int x_key_bits;                    // significant bits of X's LN keys
  int y_key_bits;                    // ... of Y's (COO variants)
  int c_key_bits;                    // ... of the contract keys (HtY)
  int fy_key_bits;                   // ... of Y free keys
};

void fill_access_profile(AccessProfile& p, const ContractStats& st,
                         const ProfileInputs& in) {
  constexpr std::uint64_t kHtyProbeBytes = 32;   // ctrl group + slot line
  constexpr std::uint64_t kHtyItemBytes = sizeof(FreeItem);
  constexpr std::uint64_t kHtaEntryBytes = 24;   // key + value + slot index

  // ① input processing: X's sorted copy; Y's sorted copy (COO) or the
  // HtY build.
  add_sorted_copy_traffic(p.at(Stage::kInputProcessing, DataObject::kX),
                          st.nnz_x, in.x_row_bytes, in.x_key_bits);
  if (in.alg == Algorithm::kSparta) {
    auto& y = p.at(Stage::kInputProcessing, DataObject::kY);
    y.bytes_read_seq += st.nnz_y * in.y_row_bytes;
    // The bulk HtY build (group_by_key): the key pass writes one
    // (contract key, position) pair and one item per Y non-zero, the
    // pairs are radix-sorted, the gather fetches each item at its
    // position into the runs, and each distinct key then enters the
    // table's index once at a hashed slot.
    auto& hty = p.at(Stage::kInputProcessing, DataObject::kHtY);
    hty.bytes_written_seq += st.nnz_y * (kPairBytes + kHtyItemBytes);
    add_radix_traffic(hty, st.nnz_y, in.c_key_bits);
    hty.bytes_read_seq += st.nnz_y * kPairBytes;
    add_gather_traffic(hty, st.nnz_y, kHtyItemBytes);
    hty.bytes_written_rand += st.num_y_keys * sizeof(KeyRun);
    hty.rand_writes += st.num_y_keys;
  } else {
    add_sorted_copy_traffic(p.at(Stage::kInputProcessing, DataObject::kY),
                            st.nnz_y, in.y_row_bytes, in.y_key_bits);
  }

  // ② index search: X contract columns stream in; HtY is probed randomly
  // (Sparta) or Y is scanned (COO variants).
  {
    auto& x = p.at(Stage::kIndexSearch, DataObject::kX);
    x.bytes_read_seq += st.nnz_x * in.x_row_bytes;
    if (in.alg == Algorithm::kSparta) {
      // Each probe reads one control group, then the matching slot —
      // two dependent random reads.
      auto& hty = p.at(Stage::kIndexSearch, DataObject::kHtY);
      hty.bytes_read_rand += st.searches * 2 * kHtyProbeBytes;
      hty.rand_reads += st.searches * 2;
    } else {
      auto& y = p.at(Stage::kIndexSearch, DataObject::kY);
      y.bytes_read_seq += in.scanned_y_elements * in.y_contract_bytes;
    }
  }

  // ③ accumulation: matched items stream from HtY/Y; the accumulator is
  // hit randomly once per multiply. Each sub-tensor's entries then
  // leave the accumulator in one sequential read and are appended to
  // Z_local (Table 2: Z_local is Seq,WO during accumulation), one
  // (key, value) pair each.
  {
    const DataObject src =
        in.alg == Algorithm::kSparta ? DataObject::kHtY : DataObject::kY;
    auto& s = p.at(Stage::kAccumulation, src);
    s.bytes_read_seq += st.multiplies * kHtyItemBytes;
    auto& a = p.at(Stage::kAccumulation, DataObject::kHtA);
    a.bytes_read_rand += st.multiplies * kHtaEntryBytes;
    a.bytes_written_rand += st.multiplies * kHtaEntryBytes;
    a.rand_reads += st.multiplies;
    a.rand_writes += st.multiplies;
    a.bytes_read_seq += st.nnz_z * kHtaEntryBytes;
    auto& zl = p.at(Stage::kAccumulation, DataObject::kZlocal);
    zl.bytes_written_seq += st.nnz_z * kPairBytes;
  }

  // ④ writeback: the gather reads Z_local's runs in sub-tensor order and
  // decodes them into Z's columns.
  {
    auto& zl = p.at(Stage::kWriteback, DataObject::kZlocal);
    zl.bytes_read_seq += st.nnz_z * kPairBytes;
    auto& z = p.at(Stage::kWriteback, DataObject::kZ);
    z.bytes_written_seq += st.nnz_z * in.z_row_bytes;
  }

  // ⑤ output sorting: each run is radix-sorted in place in Z_local (one
  // pass per key byte through the thread's scratch buffer, counted with
  // Z_local). A run is small next to the caches, so all of it is
  // sequential, and Z itself is not touched.
  if (in.sorted) {
    const auto passes = static_cast<std::uint64_t>((in.fy_key_bits + 7) / 8);
    auto& zl = p.at(Stage::kOutputSorting, DataObject::kZlocal);
    zl.bytes_read_seq += st.nnz_z * kPairBytes * passes;
    zl.bytes_written_seq += st.nnz_z * kPairBytes * passes;
  }
}

}  // namespace

// ---------------------------------------------------------------------
// contract()
// ---------------------------------------------------------------------

namespace {

// Restores a registry's previous capacity on scope exit, so a budgeted
// call cannot leave a hard cap behind on a caller-owned registry.
struct CapacityGuard {
  AllocationRegistry* reg = nullptr;
  std::size_t prev = 0;
  CapacityGuard() = default;
  CapacityGuard(const CapacityGuard&) = delete;
  CapacityGuard& operator=(const CapacityGuard&) = delete;
  ~CapacityGuard() {
    if (reg) reg->set_capacity(prev);
  }
};

// Shared implementation behind both public entry points: exactly one of
// `y` (ad-hoc contraction) and `plan` (prebuilt HtY) is non-null.
ContractResult contract_impl(const SparseTensor& x, const SparseTensor* y,
                             const YPlan* plan, const Modes& cx,
                             const Modes& cy, const ContractOptions& opts) {
  opts.validate();
  if (opts.trace) obs::TraceRecorder::global().enable();
  const ModeSplit split =
      y ? validate_modes(x, *y, cx, cy) : validate_plan_modes(x, *plan, cx);
  const std::size_t m = cx.size();
  const std::size_t nfx = split.fx.size();
  const std::size_t nfy = split.fy.size();

  // Plan-time LN-space gate (§3.3): both linearized key spaces — the
  // contract tuple (HtY keys) and Y's free tuple (HtA keys) — must fit
  // 64 bits. Reject here, before the O(nnz log nnz) input processing,
  // with a diagnostic naming the dims, instead of wrapping silently or
  // failing mid-pipeline from a LinearIndexer deep in stage ①.
  const std::vector<index_t> cdims = gather_dims(x, cx);
  const std::vector<index_t> fydims =
      y ? gather_dims(*y, split.fy) : plan->free_dims();
  check_ln_space("contract-mode key space", cdims);
  check_ln_space("Y free-mode key space", fydims);

  const int nthreads = opts.num_threads > 0 ? opts.num_threads : max_threads();

  // Budget / tracked-allocation machinery. The registry outlives every
  // ScopedCharge below; a private one serves when the caller wants
  // runtime enforcement but supplied none.
  AllocationRegistry local_registry;
  AllocationRegistry* reg = opts.registry;
  const bool budgeted = opts.budget.bytes > 0;
  if (!reg && budgeted && opts.budget.runtime) reg = &local_registry;
  CapacityGuard cap_guard;
  if (reg && budgeted && opts.budget.runtime) {
    cap_guard.reg = reg;
    cap_guard.prev = reg->capacity();
    reg->set_capacity(opts.budget.bytes);
  }

  // Eq. 5/6 pre-flight gate: rejects a predicted-footprint overflow
  // before the corresponding object is allocated (paper §4.2).
  auto preflight_gate = [&](const char* what, std::size_t estimate) {
    if (!budgeted || !opts.budget.preflight) return;
    if (estimate > opts.budget.bytes) {
      throw BudgetExceeded(
          std::string("pre-flight: estimated ") + what + " footprint of " +
              std::to_string(estimate) + " bytes exceeds the " +
              std::to_string(opts.budget.bytes) + "-byte budget",
          estimate, opts.budget.bytes, 0);
    }
  };

  ContractResult res;
  res.stats.nnz_x = x.nnz();
  res.stats.nnz_y = y ? y->nnz() : plan->nnz_y();

  // Correlation scope for every span/instant this contraction emits.
  // A request-scoped caller (the service) passes its id through
  // opts.request_id; standalone callers keep whatever ambient id the
  // thread already carries (usually 0 = untagged).
  obs::Correlation corr = obs::current_correlation();
  if (opts.request_id != 0) corr.request_id = opts.request_id;
  obs::RequestIdScope rid_scope(corr);

  // Whole-call span; the per-stage spans below nest under it.
  obs::Span sp_contract("contract");
  if (sp_contract.active()) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("algorithm").value(algorithm_name(opts.algorithm));
    w.key("nnz_x").value(static_cast<std::uint64_t>(res.stats.nnz_x));
    w.key("nnz_y").value(static_cast<std::uint64_t>(res.stats.nnz_y));
    w.end_object();
    sp_contract.set_args(w.str());
  }

  // Z shape: free X dims then free Y dims.
  std::vector<index_t> zdims = gather_dims(x, split.fx);
  zdims.insert(zdims.end(), fydims.begin(), fydims.end());

  if (x.empty() || res.stats.nnz_y == 0) {
    res.z = SparseTensor(zdims);
    return res;
  }

  // ------------------------------------------------------------------
  // ① Input processing
  // ------------------------------------------------------------------
  Timer t_input;
  obs::Span sp_input("input_processing");
  PerfScope pp_input(sp_input, res.stats.perf.at(Stage::kInputProcessing));
  SPARTA_FAILPOINT("contract.input");
  opts.cancel.check("contract.input");

  SortedCopy px;
  {
    obs::Span sp("permute_sort_x");
    px = prepare_x(x, split.fx, cx, nthreads, opts.cancel);
  }
  const std::vector<std::size_t>& ptrf = px.prefix_starts;
  res.stats.num_x_subtensors = ptrf.size() - 1;
  for (std::size_t f = 0; f + 1 < ptrf.size(); ++f) {
    res.stats.max_x_subtensor =
        std::max(res.stats.max_x_subtensor, ptrf[f + 1] - ptrf[f]);
  }

  ScopedCharge x_charge(reg, Tier::kDram, DataObject::kX);
  x_charge.update(px.t.footprint_bytes());

  // LN linearizers for the contract tuple and Y's free tuple (the same
  // as a plan's, so HtY free keys and iterated tuples share one space).
  const LinearIndexer clin(cdims);
  const LinearIndexer fylin(nfy > 0 ? fydims : std::vector<index_t>{1});

  SparseTensor ycoo;                // COO variants
  std::optional<YPlan> plan_local;  // Sparta without an external plan
  const YPlan* active_plan = plan;
  ScopedCharge y_charge(reg, Tier::kDram,
                        opts.algorithm == Algorithm::kSparta
                            ? DataObject::kHtY
                            : DataObject::kY);
  if (opts.algorithm == Algorithm::kSparta) {
    // A prebuilt plan whose HtY an external cache already charged (the
    // serving layer's plan cache) is resident memory this request does
    // not add: skip both the Eq. 5 HtY term and the registry charge.
    const bool hty_external = plan != nullptr && opts.hty_charged_externally;
    // Eq. 5 gate before HtY is built: its size is an exact function of
    // tensor metadata, so an oversized table is rejected up front.
    preflight_gate(
        "X + HtY (Eq. 5)",
        px.t.footprint_bytes() +
            (hty_external
                 ? 0
                 : estimate_hty_bytes(
                       res.stats.nnz_y,
                       y ? y->order()
                         : static_cast<int>(plan->y_dims().size()),
                       simd::detail::swiss_slots_for(res.stats.nnz_y))));
    if (!active_plan) {
      active_plan = &plan_local.emplace(*y, cy, nthreads, opts.cancel);
    }
    res.stats.num_y_keys = active_plan->num_keys();
    res.stats.max_y_group = active_plan->max_group();
    res.stats.hty_bytes = active_plan->hty_footprint_bytes();
    if (!hty_external) y_charge.update(res.stats.hty_bytes);
  } else {
    preflight_gate("X + sorted-Y copies",
                   px.t.footprint_bytes() + y->footprint_bytes());
    {
      obs::Span sp("sort_y");
      ycoo = prepare_y_coo(*y, cy, split.fy, opts.cancel);
    }
    y_charge.update(ycoo.footprint_bytes());
    // The COO variants' accumulators key on the same contract groups as
    // HtY; derive max_y_group from the sorted copy for the Eq. 6 gate.
    if (budgeted && opts.budget.preflight) {
      std::size_t run = 0;
      for (std::size_t i = 0; i < ycoo.nnz(); ++i) {
        bool same = i > 0;
        for (std::size_t k = 0; same && k < m; ++k) {
          same = ycoo.index(i - 1, static_cast<int>(k)) ==
                 ycoo.index(i, static_cast<int>(k));
        }
        run = same ? run + 1 : 1;
        res.stats.max_y_group = std::max(res.stats.max_y_group, run);
      }
    }
  }

  // Sparta sizes its HtA from HtY's largest group.
  const std::size_t hta_hint =
      opts.algorithm == Algorithm::kSparta
          ? std::max<std::size_t>(res.stats.max_y_group, 64)
          : 64;

  // Eq. 6 gate: nnz_Fmax^X and nnz_Fmax^Y are both known now, before any
  // accumulator is touched. The bound is per thread; every thread owns
  // one accumulator, whose slot count is the bucket term.
  if (budgeted && opts.budget.preflight) {
    const std::size_t est_hta =
        estimate_hta_bytes(res.stats.max_x_subtensor, res.stats.max_y_group,
                           static_cast<int>(nfy),
                           simd::detail::swiss_slots_for(hta_hint)) *
        static_cast<std::size_t>(nthreads);
    preflight_gate("inputs + HtA (Eq. 6)",
                   x_charge.charged() + y_charge.charged() + est_hta);
  }

  pp_input.finish();
  sp_input.finish();
  res.stage_times[Stage::kInputProcessing] = t_input.seconds();

  // ------------------------------------------------------------------
  // ②③⑤④ Computation over chunks of X sub-tensors
  // ------------------------------------------------------------------
  engine::ZStaging staging;
  std::vector<ThreadTimes> times;

  // Tracked per-thread accumulator charges; inert when reg is null.
  std::vector<ScopedCharge> acc_charges;
  acc_charges.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    acc_charges.emplace_back(reg, Tier::kDram, DataObject::kHtA);
  }
  const int fy_key_bits = simd::significant_bits(fylin.size() - 1);

  // The one stage loop, generic over the Y-access and accumulator
  // policies so every variant shares the same timing, tracing, fault,
  // cancel and counting scaffolding.
  auto run_stages = [&]<typename YAccess, typename Acc>(const YAccess& ya,
                                                        const Acc& proto) {
    using H = engine::Hit<typename YAccess::Match>;
    std::vector<engine::Worker<H, Acc>> workers(
        static_cast<std::size_t>(nthreads), {proto, {}, {}, {}});
    // Per-thread tuples: X's contract indices, and Y's free ones (COO).
    std::vector<std::vector<index_t>> ctuple(
        static_cast<std::size_t>(nthreads), std::vector<index_t>(m));
    std::vector<std::vector<index_t>> fyc(
        static_cast<std::size_t>(nthreads),
        std::vector<index_t>(std::max<std::size_t>(nfy, 1)));
    engine::run_stages(
        ptrf.size() - 1, nfx, nthreads, fy_key_bits, opts, reg,
        &acc_charges, workers, staging, times,
        [&](std::size_t tid, std::size_t f, std::span<index_t> fx,
            std::vector<H>& hits, engine::SearchCounts& counts) {
          const std::size_t b = ptrf[f];
          const std::size_t e = ptrf[f + 1];
          for (std::size_t k = 0; k < nfx; ++k) {
            fx[k] = px.t.index(b, static_cast<int>(k));
          }
          std::vector<index_t>& ct = ctuple[tid];
          for (std::size_t i = b; i < e; ++i) {
            for (std::size_t k = 0; k < m; ++k) {
              ct[k] = px.t.index(i, static_cast<int>(nfx + k));
            }
            const auto match = ya.find(ct, counts.scanned);
            ++counts.searches;
            if (!match.empty()) {
              ++counts.hits;
              hits.push_back({match, px.t.value(i)});
            }
          }
        },
        [&](std::size_t tid, const H& hit, Acc& acc) {
          ya.accumulate(hit.match, hit.xval, acc, fyc[tid]);
          return hit.match.size();
        });
  };

  // One runtime dispatch per call maps the algorithm to one
  // instantiation; the per-item loops inside it are statically bound.
  const HtaPolicy hta(hta_hint, fylin);
  switch (opts.algorithm) {
    case Algorithm::kSparta:
      run_stages(HtyLocate{active_plan->hty(), clin}, hta);
      break;
    case Algorithm::kCooHta:
      run_stages(CooIterate<false>{ycoo, m, nfy}, hta);
      break;
    case Algorithm::kCooBinary:
      run_stages(CooIterate<true>{ycoo, m, nfy}, hta);
      break;
    case Algorithm::kSpa:
      run_stages(CooIterate<false>{ycoo, m, nfy}, SpaPolicy(nfy, fylin));
      break;
  }
  const std::uint64_t total_scanned =
      engine::reduce_thread_times(res, times, nthreads);

  // ④ Gather the runs into Z in sub-tensor order: sorted Z when each
  // run was sorted (writeback.hpp), with no global sort.
  engine::gather_runs(res, std::move(zdims), staging, nthreads, reg,
                      opts.cancel);

  // ------------------------------------------------------------------
  // Access profile for the memory simulator
  // ------------------------------------------------------------------
  if (opts.collect_access_profile) {
    ProfileInputs in;
    in.alg = opts.algorithm;
    in.x_row_bytes =
        static_cast<std::size_t>(x.order()) * sizeof(index_t) +
        sizeof(value_t);
    in.y_contract_bytes = m * sizeof(index_t);
    const std::size_t y_order =
        y ? static_cast<std::size_t>(y->order()) : plan->y_dims().size();
    in.y_row_bytes = y_order * sizeof(index_t) + sizeof(value_t);
    in.z_row_bytes = static_cast<std::size_t>(res.z.order()) *
                         sizeof(index_t) +
                     sizeof(value_t);
    in.scanned_y_elements = total_scanned;
    in.sorted = opts.sort_output;
    in.x_key_bits = ln_key_bits(x.dims());
    in.y_key_bits = y ? ln_key_bits(y->dims()) : 0;
    in.c_key_bits = ln_key_bits(cdims);
    in.fy_key_bits = simd::significant_bits(fylin.size() - 1);
    fill_access_profile(res.profile, res.stats, in);

    res.profile.set_footprint(DataObject::kX, px.t.footprint_bytes());
    res.profile.set_footprint(DataObject::kY,
                              opts.algorithm == Algorithm::kSparta
                                  ? active_plan->y_footprint_bytes()
                                  : ycoo.footprint_bytes());
    res.profile.set_footprint(DataObject::kHtY, res.stats.hty_bytes);
    res.profile.set_footprint(DataObject::kHtA, res.stats.hta_bytes);
    res.profile.set_footprint(DataObject::kZlocal, res.stats.zlocal_bytes);
    res.profile.set_footprint(DataObject::kZ, res.stats.z_bytes);
    res.profile.measured = res.stage_times;
  }

  // ------------------------------------------------------------------
  // Observability export: absorb the per-call ContractStats into the
  // global metrics registry, and mirror the headline counters onto the
  // trace's "contract" counter track.
  // ------------------------------------------------------------------
  if (obs::metrics_enabled()) {
    auto& mreg = obs::MetricsRegistry::global();
    mreg.counter("contract.calls").add_unchecked(1);
    mreg.counter("contract.searches")
        .add_unchecked(static_cast<std::uint64_t>(res.stats.searches));
    mreg.counter("contract.hits")
        .add_unchecked(static_cast<std::uint64_t>(res.stats.hits));
    mreg.counter("contract.multiplies")
        .add_unchecked(static_cast<std::uint64_t>(res.stats.multiplies));
    mreg.counter("contract.nnz_z")
        .add_unchecked(static_cast<std::uint64_t>(res.stats.nnz_z));
    mreg.gauge("contract.hty_bytes_hwm")
        .max_unchecked(static_cast<std::uint64_t>(res.stats.hty_bytes));
    mreg.gauge("contract.hta_bytes_hwm")
        .max_unchecked(static_cast<std::uint64_t>(res.stats.hta_bytes));
    mreg.gauge("contract.zlocal_bytes_hwm")
        .max_unchecked(static_cast<std::uint64_t>(res.stats.zlocal_bytes));
    mreg.gauge("contract.z_bytes_hwm")
        .max_unchecked(static_cast<std::uint64_t>(res.stats.z_bytes));
    mreg.set_json_section("last_contract.stage_seconds",
                          res.stage_times.to_json());
    mreg.set_json_section("last_contract.counters", res.stats.to_json());
    mreg.set_json_section("last_contract.perf", res.stats.perf.to_json());
    // Per-stage wall time in microseconds, as distributions: across many
    // contractions (resilient retries, bench repeats) these show tail
    // behaviour the single last_contract section cannot.
    for (int i = 0; i < kNumStages; ++i) {
      const Stage st = static_cast<Stage>(i);
      mreg.histogram("stage_us." + std::string(stage_name(st)))
          .record(static_cast<std::uint64_t>(res.stage_times[st] * 1e6));
    }
  }
  if (obs::trace_enabled() || obs::flight_enabled()) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("searches").value(static_cast<std::uint64_t>(res.stats.searches));
    w.key("hits").value(static_cast<std::uint64_t>(res.stats.hits));
    w.key("multiplies")
        .value(static_cast<std::uint64_t>(res.stats.multiplies));
    w.key("nnz_z").value(static_cast<std::uint64_t>(res.stats.nnz_z));
    w.end_object();
    obs::trace_counter("contract", w.str());
  }

#ifndef NDEBUG
  // Satellite invariant gate: a debug-build contraction that miscounts
  // its own work fails loudly here rather than in a downstream bench.
  res.stats.check(&res.stage_times);
#endif

  return res;
}

}  // namespace

ContractResult contract(const SparseTensor& x, const SparseTensor& y,
                        const Modes& cx, const Modes& cy,
                        const ContractOptions& opts) {
  // The §3.3 heuristic: represent the larger operand as Y (it becomes the
  // hash table, probed rather than iterated).
  if (opts.swap_operands_if_larger_x && x.nnz() > y.nnz()) {
    ContractOptions o = opts;
    o.swap_operands_if_larger_x = false;
    return contract(y, x, cy, cx, o);
  }
  return contract_impl(x, &y, nullptr, cx, cy, opts);
}

ContractResult contract(const SparseTensor& x, const YPlan& plan,
                        const Modes& cx, const ContractOptions& opts) {
  ContractOptions o = opts;
  o.algorithm = Algorithm::kSparta;      // plans only exist for Sparta
  o.swap_operands_if_larger_x = false;   // orientation is fixed by the plan
  return contract_impl(x, nullptr, &plan, cx, plan.cy(), o);
}

}  // namespace sparta
