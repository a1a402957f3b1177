#include "dtw/dtw.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace trajkit {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEpsM = 1e-9;

void check_nonempty(const std::vector<Enu>& a, const std::vector<Enu>& b) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("dtw: sequences must be non-empty");
  }
}

// Shared DP with an optional Sakoe-Chiba band; band == SIZE_MAX disables it.
DtwResult dtw_impl(const std::vector<Enu>& a, const std::vector<Enu>& b,
                   std::size_t band) {
  check_nonempty(a, b);
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  // The band must at least cover the diagonal slope difference or no
  // monotone path from (0,0) to (n-1,m-1) exists inside it.
  const std::size_t min_band = n > m ? n - m : m - n;
  const std::size_t eff_band = std::max(band, min_band);

  std::vector<double> cost(n * m, kInf);
  // Back-pointer: 0 = diag, 1 = up (i-1), 2 = left (j-1), 3 = start.
  std::vector<unsigned char> from(n * m, 3);
  auto idx = [m](std::size_t i, std::size_t j) { return i * m + j; };
  auto in_band = [eff_band](std::size_t i, std::size_t j) {
    return (i >= j ? i - j : j - i) <= eff_band;
  };

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (!in_band(i, j)) continue;
      const double d = distance(a[i], b[j]);
      if (i == 0 && j == 0) {
        cost[idx(0, 0)] = d;
        from[idx(0, 0)] = 3;
        continue;
      }
      double best = kInf;
      unsigned char dir = 3;
      if (i > 0 && j > 0 && cost[idx(i - 1, j - 1)] < best) {
        best = cost[idx(i - 1, j - 1)];
        dir = 0;
      }
      if (i > 0 && cost[idx(i - 1, j)] < best) {
        best = cost[idx(i - 1, j)];
        dir = 1;
      }
      if (j > 0 && cost[idx(i, j - 1)] < best) {
        best = cost[idx(i, j - 1)];
        dir = 2;
      }
      cost[idx(i, j)] = best + d;
      from[idx(i, j)] = dir;
    }
  }

  DtwResult result;
  result.distance = cost[idx(n - 1, m - 1)];
  // Backtrack.
  std::size_t i = n - 1;
  std::size_t j = m - 1;
  while (true) {
    result.path.push_back({i, j});
    const unsigned char dir = from[idx(i, j)];
    if (dir == 3) break;
    if (dir == 0) {
      --i;
      --j;
    } else if (dir == 1) {
      --i;
    } else {
      --j;
    }
  }
  std::reverse(result.path.begin(), result.path.end());
  return result;
}

// Banded two-row value-only DP: the cost of the best warping path that stays
// within |i - j| <= band.  Because every DP operation is a single IEEE add or
// a min over already-computed values, restricting the cell set can only raise
// (never perturb) the result: the return value is a bitwise upper bound on
// the unpruned DP's distance computed from the same distance() calls.
double dtw_banded_upper_bound(const std::vector<Enu>& a, const std::vector<Enu>& b,
                              std::size_t band) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  const std::size_t min_band = n > m ? n - m : m - n;
  const std::size_t eff_band = std::max(band, min_band);

  std::vector<double> prev(m, kInf);
  std::vector<double> curr(m, kInf);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t jlo = i > eff_band ? i - eff_band : 0;
    const std::size_t jhi = std::min(m - 1, i + eff_band);
    // Reset only the span this row writes plus the one-cell margins the next
    // row reads ([jlo' - 1, jhi'] with jlo' >= jlo, jhi' <= jhi + 1); cells
    // outside it are never read again, so the stale values two rows back are
    // harmless and the fill cost tracks the band, not m.
    std::fill(curr.begin() + (jlo > 0 ? jlo - 1 : 0),
              curr.begin() + std::min(jhi + 2, m), kInf);
    for (std::size_t j = jlo; j <= jhi; ++j) {
      double best = kInf;
      if (i > 0 && j > 0) best = std::min(best, prev[j - 1]);
      if (i > 0) best = std::min(best, prev[j]);
      if (j > 0) best = std::min(best, curr[j - 1]);
      if (i == 0 && j == 0) {
        curr[0] = distance(a[0], b[0]);
        continue;
      }
      if (best == kInf) continue;  // outside last row's band
      curr[j] = best + distance(a[i], b[j]);
    }
    std::swap(prev, curr);
  }
  return prev[m - 1];
}

}  // namespace

DtwResult dtw_pruned(const std::vector<Enu>& a, const std::vector<Enu>& b,
                     std::size_t band_hint) {
  check_nonempty(a, b);
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  const double ub = dtw_banded_upper_bound(a, b, band_hint);

  // Full DP, pruning any cell whose value exceeds ub.  Correctness sketch:
  // path costs are monotone along a path (costs are >= 0 and x + d >= x under
  // IEEE rounding), so every cell on the optimal path has value <= D <= ub.
  // For any cell with true value <= ub, its true argmin predecessor also has
  // value <= ub, hence (inductively) is retained with its exact value; a
  // pruned competitor had value > ub >= this cell's value >= argmin, so it
  // was strictly worse and could not have won the min or shifted the
  // tie-break.  Retained cells therefore carry bit-identical values and
  // back-pointers, and the backtrack reproduces the unpruned DP's path
  // exactly.
  //
  // Storage: the recurrence only reads row i-1 and the current row's left
  // neighbour, so values live in two m-length rows (L1-resident) instead of
  // an n*m matrix.  Back-pointers do need the whole grid for the backtrack,
  // but the grid is never bulk-initialised: every stored direction points at
  // the predecessor that supplied a finite value, i.e. a written cell, so the
  // backtrack never reads an unwritten entry.  All three buffers are
  // thread-local scratch — the attack calls this every iteration and the
  // mallocs would otherwise show up in the inner loop.
  thread_local std::vector<double> row_a;
  thread_local std::vector<double> row_b;
  thread_local std::vector<unsigned char> from_store;
  if (row_a.size() < m) {
    row_a.resize(m);
    row_b.resize(m);
  }
  if (from_store.size() < n * m) from_store.resize(n * m);
  double* prev = row_a.data();
  double* curr = row_b.data();
  unsigned char* const from = from_store.data();
  // Row 0's buffer must read as kInf beyond the chain it writes (row 1 can
  // scan up to two cells past it); the other row is span-filled per row.
  std::fill(curr, curr + m, kInf);
  auto idx = [m](std::size_t i, std::size_t j) { return i * m + j; };

  curr[0] = distance(a[0], b[0]);
  from[idx(0, 0)] = 3;
  // Per-row live window [jlo, jhi]: columns left of jlo are unreachable
  // (their up/diag/left predecessors are all pruned), columns right of jhi
  // can only be reached through a left-neighbour chain in the current row.
  std::size_t jlo = 0;
  std::size_t jhi = 0;
  for (std::size_t j = 1; j < m; ++j) {  // row 0: pure left chain
    const double c = curr[j - 1] + distance(a[0], b[j]);
    if (c > ub) break;  // further cells only grow along the chain
    curr[j] = c;
    from[idx(0, j)] = 2;
    jhi = j;
  }
  std::swap(prev, curr);
  bool completed = true;
  for (std::size_t i = 1; i < n; ++i) {
    // Reset the span this row can read or write ([jlo - 1, m)); cells left of
    // it still hold stale values but are never read again: the window only
    // moves right.
    std::fill(curr + (jlo > 0 ? jlo - 1 : 0), curr + m, kInf);
    std::size_t next_lo = m;
    std::size_t next_hi = 0;
    bool any = false;
    for (std::size_t j = jlo; j < m; ++j) {
      if (j > jhi + 1 && curr[j - 1] == kInf) break;  // window closed
      double best = kInf;
      unsigned char dir = 3;
      if (j > 0 && prev[j - 1] < best) {
        best = prev[j - 1];
        dir = 0;
      }
      if (prev[j] < best) {
        best = prev[j];
        dir = 1;
      }
      if (j > 0 && curr[j - 1] < best) {
        best = curr[j - 1];
        dir = 2;
      }
      if (best > ub) continue;  // adding d >= 0 cannot bring it back under
      const double c = best + distance(a[i], b[j]);
      if (c > ub) continue;
      curr[j] = c;
      from[idx(i, j)] = dir;
      if (!any) {
        next_lo = j;
        any = true;
      }
      next_hi = j;
    }
    if (!any) {  // whole row pruned; no path survives -> fallback
      completed = false;
      break;
    }
    jlo = next_lo;
    jhi = next_hi;
    std::swap(prev, curr);
  }

  if (!completed || prev[m - 1] == kInf) {
    // Cannot happen when ub >= D (the optimal path survives pruning); kept as
    // a safety net so a bound bug degrades to slow-but-correct.
    return dtw_impl(a, b, std::numeric_limits<std::size_t>::max());
  }

  DtwResult result;
  result.distance = prev[m - 1];
  std::size_t i = n - 1;
  std::size_t j = m - 1;
  while (true) {
    result.path.push_back({i, j});
    const unsigned char dir = from[idx(i, j)];
    if (dir == 3) break;
    if (dir == 0) {
      --i;
      --j;
    } else if (dir == 1) {
      --i;
    } else {
      --j;
    }
  }
  std::reverse(result.path.begin(), result.path.end());
  return result;
}

DtwResult dtw_banded(const std::vector<Enu>& a, const std::vector<Enu>& b,
                     std::size_t band) {
  return dtw_impl(a, b, band);
}

double dtw_distance(const std::vector<Enu>& a, const std::vector<Enu>& b,
                    double abandon_above) {
  check_nonempty(a, b);
  // Two-row DP; iterate over the longer sequence to keep rows short
  // (O(min(n, m)) memory).  Every monotone warping path crosses every row of
  // the longer sequence and path costs only grow, so once a whole row's
  // minimum exceeds `abandon_above` the final distance must too and the DP
  // abandons with +inf.  With abandon_above = +inf the check never fires and
  // the result is the plain exact distance.
  const std::vector<Enu>& rows = a.size() >= b.size() ? a : b;
  const std::vector<Enu>& cols = a.size() >= b.size() ? b : a;
  const std::size_t m = cols.size();
  std::vector<double> prev(m, kInf);
  std::vector<double> curr(m, kInf);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    double row_min = kInf;
    for (std::size_t j = 0; j < m; ++j) {
      if (i == 0 && j == 0) {
        curr[0] = distance(rows[0], cols[0]);
        row_min = curr[0];
        continue;
      }
      double best = kInf;
      if (i > 0 && j > 0) best = std::min(best, prev[j - 1]);
      if (i > 0) best = std::min(best, prev[j]);
      if (j > 0) best = std::min(best, curr[j - 1]);
      // A cell already above the threshold cannot sit on any path that
      // finishes at or below it (path costs only grow), so its exact value is
      // irrelevant: skip the distance call and leave it +inf.  When the true
      // distance is <= abandon_above the optimal path's cells all survive and
      // the result is exact; above it the DP abandons.  With the default
      // +inf threshold the branch is dead and the DP is the plain exact one.
      if (best > abandon_above) continue;
      curr[j] = best + distance(rows[i], cols[j]);
      row_min = std::min(row_min, curr[j]);
    }
    if (row_min > abandon_above) return kInf;
    std::swap(prev, curr);
    std::fill(curr.begin(), curr.end(), kInf);
  }
  return prev[m - 1];
}

double dtw_normalized(const std::vector<Enu>& a, const std::vector<Enu>& b) {
  const auto r = dtw_pruned(a, b);
  return r.distance / static_cast<double>(r.path.size());
}

double dtw_normalized_gradient(const std::vector<Enu>& a, const std::vector<Enu>& b,
                               std::vector<Enu>& db, std::size_t band_hint) {
  if (db.size() != b.size()) {
    throw std::invalid_argument("dtw_normalized_gradient: db size mismatch");
  }
  const auto r = dtw_pruned(a, b, band_hint);
  const double inv_len = 1.0 / static_cast<double>(r.path.size());
  for (const auto& pair : r.path) {
    const Enu& p = a[pair.i];
    const Enu& q = b[pair.j];
    const double d = std::max(distance(p, q), kEpsM);
    db[pair.j].east += inv_len * (q.east - p.east) / d;
    db[pair.j].north += inv_len * (q.north - p.north) / d;
  }
  return r.distance * inv_len;
}

}  // namespace trajkit
