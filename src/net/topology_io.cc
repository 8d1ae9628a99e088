#include "net/topology_io.h"

#include <fstream>

#include "net/geometry.h"

namespace wsnq {

Status WriteTopologyDot(const Network& network, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  const SpanningTree& tree = network.tree();
  const RadioGraph& graph = network.graph();
  const auto id = [&network](int v) { return network.external_id(v); };
  out << "digraph wsnq {\n";
  out << "  // root = " << id(network.root()) << "\n";
  for (int e = 0; e < network.num_vertices(); ++e) {
    const int v = network.internal_id(e);
    const Point2D& p = graph.point(v);
    out << "  n" << e << " [pos=\"" << p.x << ',' << p.y << "!\""
        << (network.is_root(v) ? ", shape=doublecircle" : "") << "];\n";
  }
  for (int e = 0; e < network.num_vertices(); ++e) {
    const int v = network.internal_id(e);
    const int parent = tree.parent[static_cast<size_t>(v)];
    if (parent >= 0) out << "  n" << e << " -> n" << id(parent) << ";\n";
  }
  for (int e = 0; e < network.num_vertices(); ++e) {
    const int v = network.internal_id(e);
    for (int u : graph.neighbors(v)) {
      if (id(u) <= e) continue;  // one direction per physical edge
      if (tree.parent[static_cast<size_t>(v)] == u ||
          tree.parent[static_cast<size_t>(u)] == v) {
        continue;  // already drawn as a tree edge
      }
      out << "  n" << e << " -> n" << id(u)
          << " [style=dashed, dir=none, color=gray];\n";
    }
  }
  out << "}\n";
  out.flush();
  if (!out.good()) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

Status WriteTreeCsv(const Network& network, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  out << "child,parent,distance_m,depth\n";
  const SpanningTree& tree = network.tree();
  const RadioGraph& graph = network.graph();
  for (int e = 0; e < network.num_vertices(); ++e) {
    const int v = network.internal_id(e);
    const int parent = tree.parent[static_cast<size_t>(v)];
    if (parent < 0) continue;
    out << e << ',' << network.external_id(parent) << ','
        << Distance(graph.point(v), graph.point(parent)) << ','
        << tree.depth[static_cast<size_t>(v)] << "\n";
  }
  out.flush();
  if (!out.good()) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

}  // namespace wsnq
