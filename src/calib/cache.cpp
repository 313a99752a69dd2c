#include "lognic/calib/cache.hpp"

#include <cstring>
#include <utility>

namespace lognic::calib {

std::string
cache_key(const solver::Vector& x)
{
    std::string key;
    key.resize(x.size() * sizeof(double));
    if (!x.empty())
        std::memcpy(key.data(), x.data(), key.size());
    return key;
}

CachedResiduals::CachedResiduals(solver::VectorFn fn) : fn_(std::move(fn)) {}

solver::Vector
CachedResiduals::operator()(const solver::Vector& x)
{
    ++requests_;
    std::string key = cache_key(x);
    if (const auto hit = memo_.find(key); hit != memo_.end())
        return hit->second;
    ++underlying_;
    solver::Vector r = fn_(x);
    double loss = 0.0;
    for (double v : r)
        loss += 0.5 * v * v;
    if (!has_best_ || loss < best_) {
        best_ = loss;
        has_best_ = true;
        convergence_.push_back(loss);
    }
    memo_.emplace(std::move(key), r);
    return r;
}

} // namespace lognic::calib
