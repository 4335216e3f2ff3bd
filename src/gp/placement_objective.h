// The combined, preconditioned GP objective: WL(w) + lambda * D(w).
//
// ePlace applies a Jacobi preconditioner to the gradient — each coordinate
// is divided by an estimate of the objective's diagonal curvature,
// max(#pins(i) + lambda * q_i, eps) — which equalizes step sizes between
// high-fanout cells and large cells. Without it Nesterov's method needs
// far smaller steps to stay stable. The preconditioned direction is what
// the optimizer sees as "the gradient", exactly as in ePlace/DREAMPlace.
#pragma once

#include <span>
#include <vector>

#include "autograd/objective.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "db/database.h"
#include "ops/density_op.h"
#include "ops/wirelength.h"

namespace dreamplace {

template <typename T>
class PlacementObjective final : public ObjectiveFunction<T> {
 public:
  PlacementObjective(const Database& db, WirelengthOp<T>& wirelength,
                     DensityFunction<T>& density)
      : wirelength_(wirelength), density_(density) {
    const Index num_nodes = density.numNodes();
    pin_count_.assign(num_nodes, T(0));
    area_.assign(num_nodes, T(0));
    for (Index i = 0; i < db.numMovable(); ++i) {
      pin_count_[i] =
          static_cast<T>(db.cellPinEnd(i) - db.cellPinBegin(i));
      area_[i] = static_cast<T>(db.cellArea(i));
    }
    // Fillers: no pins; their charge is their (smoothed) area.
    for (Index i = db.numMovable(); i < num_nodes; ++i) {
      area_[i] = density.nodeArea(i);
    }
    // Normalize areas so lambda * area is commensurate with pin counts.
    T max_area = T(0);
    for (T a : area_) {
      max_area = std::max(max_area, a);
    }
    if (max_area > 0) {
      for (T& a : area_) {
        a /= max_area;
      }
    }
    wl_scratch_.resize(this->size());
    density_scratch_.resize(this->size());
  }

  void setDensityWeight(double lambda) { lambda_ = lambda; }
  double densityWeight() const { return lambda_; }
  void setPreconditioning(bool enabled) { precondition_ = enabled; }

  double lastWirelength() const { return last_wl_; }
  double lastDensity() const { return last_density_; }

  std::size_t size() const override { return wirelength_.size(); }

  double evaluate(std::span<const T> params, std::span<T> grad) override {
    {
      ScopedTimer t("gp/op/wirelength");
      last_wl_ = wirelength_.evaluate(params, std::span<T>(wl_scratch_));
    }
    {
      ScopedTimer t("gp/op/density");
      last_density_ =
          density_.evaluate(params, std::span<T>(density_scratch_));
    }
    ScopedTimer t("gp/op/combine");
    const T lambda = static_cast<T>(lambda_);
    const Index n = density_.numNodes();
    const T* wl_g = wl_scratch_.data();
    const T* d_g = density_scratch_.data();
    parallelFor("gp/combine", n, 2048, [&](Index i) {
      T gx = wl_g[i] + lambda * d_g[i];
      T gy = wl_g[i + n] + lambda * d_g[i + n];
      if (precondition_) {
        const T precond =
            std::max(pin_count_[i] + lambda * area_[i], T(1));
        gx /= precond;
        gy /= precond;
      }
      grad[i] = gx;
      grad[i + n] = gy;
    });
    return last_wl_ + lambda_ * last_density_;
  }

 private:
  WirelengthOp<T>& wirelength_;
  DensityFunction<T>& density_;
  double lambda_ = 0.0;
  bool precondition_ = true;
  double last_wl_ = 0.0;
  double last_density_ = 0.0;
  std::vector<T> pin_count_;
  std::vector<T> area_;
  std::vector<T> wl_scratch_;
  std::vector<T> density_scratch_;
};

}  // namespace dreamplace
