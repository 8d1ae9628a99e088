#include "net/radio_graph.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace wsnq {
RadioGraph::RadioGraph(std::vector<Point2D> points, double rho)
    : points_(std::move(points)), rho_(rho) {
  WSNQ_CHECK_GT(rho, 0.0);
  const int n = size();
  offsets_.assign(static_cast<size_t>(n) + 1, 0);
  if (n == 0) return;

  // Bounding box and grid with cell size >= rho: the +-1-cell neighbour
  // scan below only needs the cell to be at least rho wide, so a
  // degenerate rho (orders of magnitude below the point spread) widens the
  // cell instead of requesting a grid with more cells than memory — with
  // rho = 0.001 over a 200 m area, cell size rho would mean 4e10 cells and
  // an int overflow in cols * rows.
  double min_x = points_[0].x, max_x = points_[0].x;
  double min_y = points_[0].y, max_y = points_[0].y;
  for (const auto& p : points_) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const int64_t max_cells = std::max<int64_t>(64, 4 * static_cast<int64_t>(n));
  double cell = rho;
  auto grid_dim = [](double span, double cell_size) {
    return std::max<int64_t>(
        1, static_cast<int64_t>(std::floor(span / cell_size)) + 1);
  };
  while (grid_dim(max_x - min_x, cell) * grid_dim(max_y - min_y, cell) >
         max_cells) {
    cell *= 2.0;
  }
  const int cols = static_cast<int>(grid_dim(max_x - min_x, cell));
  const int rows = static_cast<int>(grid_dim(max_y - min_y, cell));
  auto cell_of = [&](const Point2D& p) {
    int cx = static_cast<int>((p.x - min_x) / cell);
    int cy = static_cast<int>((p.y - min_y) / cell);
    cx = std::clamp(cx, 0, cols - 1);
    cy = std::clamp(cy, 0, rows - 1);
    return cy * cols + cx;
  };

  // Counting sort of the vertices into cells (ascending id within a cell),
  // with the positions copied alongside so a cell scan reads one
  // contiguous run.
  const size_t num_cells = static_cast<size_t>(cols) *
                           static_cast<size_t>(rows);
  std::vector<int> cell_start(num_cells + 1, 0);
  std::vector<int> cell_of_vertex(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    const int c = cell_of(points_[static_cast<size_t>(v)]);
    cell_of_vertex[static_cast<size_t>(v)] = c;
    ++cell_start[static_cast<size_t>(c) + 1];
  }
  for (size_t c = 0; c < num_cells; ++c) cell_start[c + 1] += cell_start[c];
  std::vector<int> member(static_cast<size_t>(n));
  std::vector<Point2D> member_pos(static_cast<size_t>(n));
  {
    std::vector<int> cursor(cell_start.begin(), cell_start.end() - 1);
    for (int v = 0; v < n; ++v) {
      const size_t c =
          static_cast<size_t>(cell_of_vertex[static_cast<size_t>(v)]);
      const size_t slot = static_cast<size_t>(cursor[c]++);
      member[slot] = v;
      member_pos[slot] = points_[static_cast<size_t>(v)];
    }
  }

  // Pass 1: degrees. Visits every unordered pair {u, v} within range
  // exactly once — pairs inside a cell, then pairs between the cell and its
  // four forward neighbours (E, SW, S, SE), so no pair is reached from both
  // sides — and counts it for both ends, one slot ahead so the prefix sum
  // below turns the degrees into offsets in place.
  const double rho_sq = rho * rho;
  constexpr int kForward[4][2] = {{1, 0}, {-1, 1}, {0, 1}, {1, 1}};
  auto count_edge = [&](int u, int v) {
    ++offsets_[static_cast<size_t>(u) + 1];
    ++offsets_[static_cast<size_t>(v) + 1];
  };
  for (int cy = 0; cy < rows; ++cy) {
    for (int cx = 0; cx < cols; ++cx) {
      const size_t c = static_cast<size_t>(cy * cols + cx);
      const int begin = cell_start[c];
      const int end = cell_start[c + 1];
      for (int i = begin; i < end; ++i) {
        const Point2D& p = member_pos[static_cast<size_t>(i)];
        for (int j = i + 1; j < end; ++j) {
          if (SquaredDistance(p, member_pos[static_cast<size_t>(j)]) <=
              rho_sq) {
            count_edge(member[static_cast<size_t>(i)],
                       member[static_cast<size_t>(j)]);
          }
        }
      }
      for (const auto& step : kForward) {
        const int nx = cx + step[0];
        const int ny = cy + step[1];
        if (nx < 0 || nx >= cols || ny >= rows) continue;
        const size_t nc = static_cast<size_t>(ny * cols + nx);
        const int other_begin = cell_start[nc];
        const int other_end = cell_start[nc + 1];
        for (int i = begin; i < end; ++i) {
          const Point2D& p = member_pos[static_cast<size_t>(i)];
          for (int j = other_begin; j < other_end; ++j) {
            if (SquaredDistance(p, member_pos[static_cast<size_t>(j)]) <=
                rho_sq) {
              count_edge(member[static_cast<size_t>(i)],
                         member[static_cast<size_t>(j)]);
            }
          }
        }
      }
    }
  }
  for (size_t v = 0; v < static_cast<size_t>(n); ++v) {
    offsets_[v + 1] += offsets_[v];
  }
  // Pass 2: fill. Walking the vertices in ascending id and appending v to
  // the slice of each neighbour u leaves every slice ascending, with no
  // per-vertex sort and no second neighbour array. The walk tests each
  // pair from both ends; SquaredDistance is symmetric bit for bit, so it
  // finds exactly the pairs pass 1 counted. The three cells of a grid row
  // around v are adjacent in the cell-sorted order, so each row is one
  // contiguous run of members.
  neighbors_.resize(static_cast<size_t>(offsets_[static_cast<size_t>(n)]));
  std::vector<int64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (int v = 0; v < n; ++v) {
    const Point2D& p = points_[static_cast<size_t>(v)];
    const int c = cell_of_vertex[static_cast<size_t>(v)];
    const int cx = c % cols;
    const int cy = c / cols;
    for (int ny = std::max(cy - 1, 0); ny <= std::min(cy + 1, rows - 1);
         ++ny) {
      const size_t row = static_cast<size_t>(ny) * static_cast<size_t>(cols);
      const int begin = cell_start[row + static_cast<size_t>(
                                             std::max(cx - 1, 0))];
      const int end = cell_start[row + static_cast<size_t>(
                                           std::min(cx + 1, cols - 1)) +
                                 1];
      for (int j = begin; j < end; ++j) {
        const int u = member[static_cast<size_t>(j)];
        if (u != v &&
            SquaredDistance(p, member_pos[static_cast<size_t>(j)]) <=
                rho_sq) {
          neighbors_[static_cast<size_t>(cursor[static_cast<size_t>(u)]++)] =
              v;
        }
      }
    }
  }
}

RadioGraph RadioGraph::Permuted(std::span<const int> order) const {
  const int n = size();
  WSNQ_CHECK_EQ(static_cast<int>(order.size()), n);
  RadioGraph out(rho_);
  // new_id[v]: the new id of this graph's vertex v.
  std::vector<int> new_id(static_cast<size_t>(n), -1);
  out.points_.resize(static_cast<size_t>(n));
  out.external_.resize(static_cast<size_t>(n));
  out.internal_.resize(static_cast<size_t>(n));
  out.offsets_.resize(static_cast<size_t>(n) + 1);
  out.offsets_[0] = 0;
  for (int i = 0; i < n; ++i) {
    const int old = order[static_cast<size_t>(i)];
    WSNQ_CHECK_GE(old, 0);
    WSNQ_CHECK_LT(old, n);
    WSNQ_CHECK_EQ(new_id[static_cast<size_t>(old)], -1);
    new_id[static_cast<size_t>(old)] = i;
    const size_t at = static_cast<size_t>(i);
    out.points_[at] = points_[static_cast<size_t>(old)];
    out.external_[at] = external_id(old);
    out.internal_[static_cast<size_t>(external_id(old))] = i;
    out.offsets_[at + 1] = out.offsets_[at] +
                           (offsets_[static_cast<size_t>(old) + 1] -
                            offsets_[static_cast<size_t>(old)]);
  }
  // Read the neighbour array front to back and scatter each slice to its
  // new place: sequential reads, and a slice's writes stay contiguous.
  out.neighbors_.resize(neighbors_.size());
  for (int old = 0; old < n; ++old) {
    int64_t slot =
        out.offsets_[static_cast<size_t>(new_id[static_cast<size_t>(old)])];
    for (int u : neighbors(old)) {
      out.neighbors_[static_cast<size_t>(slot++)] =
          new_id[static_cast<size_t>(u)];
    }
  }
  return out;
}

bool RadioGraph::IsConnected() const {
  const int n = size();
  if (n <= 1) return true;
  std::vector<char> seen(static_cast<size_t>(n), 0);
  std::vector<int> stack = {0};
  seen[0] = 1;
  int visited = 1;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (int u : neighbors(v)) {
      if (!seen[static_cast<size_t>(u)]) {
        seen[static_cast<size_t>(u)] = 1;
        ++visited;
        stack.push_back(u);
      }
    }
  }
  return visited == n;
}

}  // namespace wsnq
