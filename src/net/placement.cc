#include "net/placement.h"

#include <cmath>
#include <utility>
#include <vector>

#include "net/radio_graph.h"
#include "util/check.h"

namespace wsnq {

std::vector<Point2D> UniformPlacement(int count, double width, double height,
                                      Rng* rng) {
  WSNQ_CHECK_GT(count, 0);
  std::vector<Point2D> points(static_cast<size_t>(count));
  for (auto& p : points) {
    p.x = rng->UniformDouble(0.0, width);
    p.y = rng->UniformDouble(0.0, height);
  }
  return points;
}

std::vector<Point2D> JitteredGridPlacement(int count, double width,
                                           double height,
                                           double jitter_fraction, Rng* rng) {
  WSNQ_CHECK_GT(count, 0);
  const int side = static_cast<int>(std::ceil(std::sqrt(count)));
  const double cell_w = width / side;
  const double cell_h = height / side;
  std::vector<Point2D> points;
  points.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int gx = i % side;
    const int gy = i / side;
    const double jx = rng->UniformDouble(-jitter_fraction, jitter_fraction);
    const double jy = rng->UniformDouble(-jitter_fraction, jitter_fraction);
    points.push_back({(gx + 0.5 + jx) * cell_w, (gy + 0.5 + jy) * cell_h});
  }
  return points;
}

StatusOr<RadioGraph> ConnectedDeployment(int count, double width,
                                         double height, double rho, Rng* rng,
                                         int max_attempts) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    RadioGraph graph(UniformPlacement(count, width, height, rng), rho);
    if (graph.IsConnected()) return graph;
  }
  for (double jitter : {0.25, 0.1, 0.04, 0.0}) {
    RadioGraph graph(JitteredGridPlacement(count, width, height, jitter, rng),
                     rho);
    if (graph.IsConnected()) return graph;
  }
  return Status::FailedPrecondition(
      "could not generate a connected topology: radio range too small for "
      "the requested node density");
}

StatusOr<std::vector<Point2D>> ConnectedPlacement(int count, double width,
                                                  double height, double rho,
                                                  Rng* rng, int max_attempts) {
  StatusOr<RadioGraph> graph =
      ConnectedDeployment(count, width, height, rho, rng, max_attempts);
  if (!graph.ok()) return graph.status();
  return graph.value().points();
}

}  // namespace wsnq
