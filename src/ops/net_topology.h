// Flattened net topology shared by the wirelength operators.
//
// All wirelength kernels (the three WA strategies, LSE, and the exact
// HPWL probe) consume the same flat arrays: CSR net->pin offsets, the
// pin->node map, pin offsets for movable pins, absolute positions for
// fixed pins, and net weights. NetTopology owns those arrays (built once
// from the database); NetTopologyView is the non-owning span bundle the
// kernels read. Passing one view instead of seven parallel out-params
// keeps kernel signatures stable as fields are added and guarantees every
// strategy sees identical data.
#pragma once

#include <span>
#include <vector>

#include "db/database.h"

namespace dreamplace {

/// Non-owning view over the flattened topology arrays.
template <typename T>
struct NetTopologyView {
  std::span<const Index> netStart;   ///< CSR offsets, numNets()+1 entries.
  std::span<const Index> pinNet;     ///< Pin -> net.
  std::span<const Index> pinNode;    ///< Pin -> node, kInvalidIndex if fixed.
  std::span<const T> pinFixedX;      ///< Absolute position of fixed pins.
  std::span<const T> pinFixedY;
  std::span<const T> pinOffsetX;     ///< Offset from node center if movable.
  std::span<const T> pinOffsetY;
  std::span<const T> netWeight;
  std::span<const Index> nodePinStart;  ///< CSR offsets, numCells+1 entries.
  std::span<const Index> nodePins;      ///< Movable pins grouped by node.

  Index numNets() const { return static_cast<Index>(netWeight.size()); }
  Index numPins() const { return static_cast<Index>(pinNode.size()); }
  Index numCells() const {
    return static_cast<Index>(nodePinStart.size()) - 1;
  }
  Index netBegin(Index e) const { return netStart[e]; }
  Index netEnd(Index e) const { return netStart[e + 1]; }
  Index netDegree(Index e) const { return netEnd(e) - netBegin(e); }
};

/// Owning storage for a NetTopologyView, built once from the database.
template <typename T>
class NetTopology {
 public:
  NetTopology() = default;
  explicit NetTopology(const Database& db);

  NetTopologyView<T> view() const {
    return {net_start_,    pin_net_,      pin_node_,     pin_fixed_x_,
            pin_fixed_y_,  pin_offset_x_, pin_offset_y_, net_weight_,
            node_pin_start_, node_pins_};
  }

 private:
  std::vector<Index> net_start_;
  std::vector<Index> pin_net_;
  std::vector<Index> pin_node_;
  std::vector<T> pin_fixed_x_, pin_fixed_y_;
  std::vector<T> pin_offset_x_, pin_offset_y_;
  std::vector<T> net_weight_;
  // Node -> pin CSR (movable pins only). The wirelength kernels write
  // per-pin gradients and gather them per node in this fixed pin order,
  // which is what makes the parallel backward pass deterministic.
  std::vector<Index> node_pin_start_;
  std::vector<Index> node_pins_;
};

/// Exact weighted HPWL over a topology at the given node centers
/// (params[0..numNodes) are x, params[numNodes..2*numNodes) are y).
/// Shared monitoring probe of the WA and LSE ops; not differentiable.
template <typename T>
double topologyHpwl(const NetTopologyView<T>& topo, std::span<const T> params,
                    Index numNodes);

/// The same HPWL from precomputed pin positions (pinX[p], pinY[p] =
/// node center + offset, or the fixed position). Both functions share one
/// per-net body and one 64-net double reduction, so for finite positions
/// the two results are bit-equal — the net-by-net, atomic and LSE
/// kernels use this to report HPWL from the pin arrays their evaluate()
/// fills anyway.
template <typename T>
double pinArrayHpwl(const NetTopologyView<T>& topo, const T* pinX,
                    const T* pinY);

/// Accumulates per-pin gradients into per-node gradients through the
/// node->pin CSR: gradX[c] += sum of pinGradX over c's pins, in ascending
/// pin order. Nodes write disjoint entries, so the loop parallelizes
/// without atomics and the fixed gather order keeps the result identical
/// for any thread count. Shared backward tail of the WA and LSE ops.
template <typename T>
void gatherPinGradient(const NetTopologyView<T>& topo, const T* pinGradX,
                       const T* pinGradY, T* gradX, T* gradY);

}  // namespace dreamplace
