#include "ops/net_topology.h"

#include <algorithm>
#include <limits>

#include "common/parallel.h"

namespace dreamplace {

template <typename T>
NetTopology<T>::NetTopology(const Database& db) {
  const Index num_nets = db.numNets();
  const Index num_pins = db.numPins();
  net_start_.assign(db.netPinStarts().begin(), db.netPinStarts().end());
  pin_net_.resize(num_pins);
  pin_node_.resize(num_pins);
  pin_fixed_x_.assign(num_pins, T(0));
  pin_fixed_y_.assign(num_pins, T(0));
  pin_offset_x_.assign(num_pins, T(0));
  pin_offset_y_.assign(num_pins, T(0));
  net_weight_.resize(num_nets);
  for (Index e = 0; e < num_nets; ++e) {
    net_weight_[e] = static_cast<T>(db.netWeight(e));
  }
  for (Index p = 0; p < num_pins; ++p) {
    pin_net_[p] = db.pinNet(p);
    const Index c = db.pinCell(p);
    if (db.isMovable(c)) {
      pin_node_[p] = c;
      pin_offset_x_[p] = static_cast<T>(db.pinOffsetX(p));
      pin_offset_y_[p] = static_cast<T>(db.pinOffsetY(p));
    } else {
      pin_node_[p] = kInvalidIndex;
      pin_fixed_x_[p] = static_cast<T>(db.pinX(p));
      pin_fixed_y_[p] = static_cast<T>(db.pinY(p));
    }
  }
  // Node -> pin CSR over all cells (fixed cells keep empty ranges). Two
  // counting passes keep the build deterministic and allocation-exact.
  const Index num_cells = db.numCells();
  node_pin_start_.assign(static_cast<std::size_t>(num_cells) + 1, 0);
  for (Index p = 0; p < num_pins; ++p) {
    if (pin_node_[p] >= 0) ++node_pin_start_[pin_node_[p] + 1];
  }
  for (Index c = 0; c < num_cells; ++c) {
    node_pin_start_[c + 1] += node_pin_start_[c];
  }
  node_pins_.resize(node_pin_start_[num_cells]);
  std::vector<Index> cursor(node_pin_start_.begin(),
                            node_pin_start_.end() - 1);
  for (Index p = 0; p < num_pins; ++p) {
    if (pin_node_[p] >= 0) node_pins_[cursor[pin_node_[p]]++] = p;
  }
}

namespace {

/// Weighted HPWL summed over 64-net blocks in double; pinPos(p, px, py)
/// yields pin p's position.
template <typename T, typename PinPos>
double netsHpwl(const NetTopologyView<T>& topo, PinPos pinPos) {
  return parallelReduce(
      "ops/wl/hpwl", topo.numNets(), 64, 0.0,
      [&](Index block_begin, Index block_end) {
        double partial = 0.0;
        for (Index e = block_begin; e < block_end; ++e) {
          const Index begin = topo.netBegin(e);
          const Index end = topo.netEnd(e);
          if (end - begin < 2) {
            continue;
          }
          T xl = std::numeric_limits<T>::infinity();
          T xh = -xl, yl = xl, yh = -xl;
          for (Index p = begin; p < end; ++p) {
            T px, py;
            pinPos(p, px, py);
            xl = std::min(xl, px);
            xh = std::max(xh, px);
            yl = std::min(yl, py);
            yh = std::max(yh, py);
          }
          partial += static_cast<double>(topo.netWeight[e] *
                                         ((xh - xl) + (yh - yl)));
        }
        return partial;
      },
      [](double acc, double partial) { return acc + partial; });
}

}  // namespace

template <typename T>
double topologyHpwl(const NetTopologyView<T>& topo, std::span<const T> params,
                    Index numNodes) {
  const T* x = params.data();
  const T* y = params.data() + numNodes;
  return netsHpwl(topo, [&](Index p, T& px, T& py) {
    const Index node = topo.pinNode[p];
    px = node >= 0 ? x[node] + topo.pinOffsetX[p] : topo.pinFixedX[p];
    py = node >= 0 ? y[node] + topo.pinOffsetY[p] : topo.pinFixedY[p];
  });
}

template <typename T>
double pinArrayHpwl(const NetTopologyView<T>& topo, const T* pinX,
                    const T* pinY) {
  return netsHpwl(topo, [&](Index p, T& px, T& py) {
    px = pinX[p];
    py = pinY[p];
  });
}

template <typename T>
void gatherPinGradient(const NetTopologyView<T>& topo, const T* pinGradX,
                       const T* pinGradY, T* gradX, T* gradY) {
  parallelFor("ops/wl/gather", topo.numCells(), 512, [&](Index c) {
    const Index begin = topo.nodePinStart[c];
    const Index end = topo.nodePinStart[c + 1];
    if (begin == end) return;
    T gx = T(0), gy = T(0);
    for (Index k = begin; k < end; ++k) {
      const Index p = topo.nodePins[k];
      gx += pinGradX[p];
      gy += pinGradY[p];
    }
    gradX[c] += gx;
    gradY[c] += gy;
  });
}

#define DP_INSTANTIATE_TOPO(T)                                          \
  template class NetTopology<T>;                                        \
  template double topologyHpwl<T>(const NetTopologyView<T>&,            \
                                  std::span<const T>, Index);           \
  template double pinArrayHpwl<T>(const NetTopologyView<T>&, const T*,  \
                                  const T*);                            \
  template void gatherPinGradient<T>(const NetTopologyView<T>&,         \
                                     const T*, const T*, T*, T*);

DP_INSTANTIATE_TOPO(float)
DP_INSTANTIATE_TOPO(double)

#undef DP_INSTANTIATE_TOPO

}  // namespace dreamplace
