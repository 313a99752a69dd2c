#include "lognic/solver/linalg.hpp"

#include <cmath>
#include <stdexcept>

namespace lognic::solver {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(rows.size() ? rows.begin()->size() : 0)
{
    data_.reserve(rows_ * cols_);
    for (const auto& row : rows) {
        if (row.size() != cols_)
            throw std::invalid_argument("Matrix: ragged initializer");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

Matrix
Matrix::transposed() const
{
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            t(c, r) = (*this)(r, c);
    return t;
}

Matrix
Matrix::operator*(const Matrix& rhs) const
{
    if (cols_ != rhs.rows_)
        throw std::invalid_argument("Matrix multiply: shape mismatch");
    Matrix out(rows_, rhs.cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double a = (*this)(r, k);
            if (a == 0.0)
                continue;
            for (std::size_t c = 0; c < rhs.cols_; ++c)
                out(r, c) += a * rhs(k, c);
        }
    }
    return out;
}

Vector
Matrix::operator*(const Vector& v) const
{
    if (cols_ != v.size())
        throw std::invalid_argument("Matrix-vector multiply: shape mismatch");
    Vector out(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            out[r] += (*this)(r, c) * v[c];
    return out;
}

Vector
solve_lu(Matrix a, Vector b)
{
    if (a.rows() != a.cols() || a.rows() != b.size())
        throw std::invalid_argument("solve_lu: shape mismatch");
    const std::size_t n = a.rows();

    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivot.
        std::size_t pivot = col;
        double best = std::abs(a(col, col));
        for (std::size_t r = col + 1; r < n; ++r) {
            if (std::abs(a(r, col)) > best) {
                best = std::abs(a(r, col));
                pivot = r;
            }
        }
        if (best < 1e-300)
            throw std::runtime_error("solve_lu: singular matrix");
        if (pivot != col) {
            for (std::size_t c = 0; c < n; ++c)
                std::swap(a(col, c), a(pivot, c));
            std::swap(b[col], b[pivot]);
        }
        for (std::size_t r = col + 1; r < n; ++r) {
            const double f = a(r, col) / a(col, col);
            if (f == 0.0)
                continue;
            for (std::size_t c = col; c < n; ++c)
                a(r, c) -= f * a(col, c);
            b[r] -= f * b[col];
        }
    }
    // Back substitution.
    Vector x(n);
    for (std::size_t ri = n; ri-- > 0;) {
        double s = b[ri];
        for (std::size_t c = ri + 1; c < n; ++c)
            s -= a(ri, c) * x[c];
        x[ri] = s / a(ri, ri);
    }
    return x;
}

Vector
solve_cholesky(const Matrix& a, const Vector& b)
{
    if (a.rows() != a.cols() || a.rows() != b.size())
        throw std::invalid_argument("solve_cholesky: shape mismatch");
    const std::size_t n = a.rows();
    Matrix l(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double s = a(i, j);
            for (std::size_t k = 0; k < j; ++k)
                s -= l(i, k) * l(j, k);
            if (i == j) {
                if (s <= 0.0)
                    throw std::runtime_error(
                        "solve_cholesky: matrix not positive definite");
                l(i, i) = std::sqrt(s);
            } else {
                l(i, j) = s / l(j, j);
            }
        }
    }
    // Forward solve L y = b.
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
        double s = b[i];
        for (std::size_t k = 0; k < i; ++k)
            s -= l(i, k) * y[k];
        y[i] = s / l(i, i);
    }
    // Backward solve L^T x = y.
    Vector x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double s = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            s -= l(k, ii) * x[k];
        x[ii] = s / l(ii, ii);
    }
    return x;
}

Vector
axpy(double alpha, const Vector& x, const Vector& y)
{
    Vector out(y);
    for (std::size_t i = 0; i < x.size(); ++i)
        out[i] += alpha * x[i];
    return out;
}

Vector
scaled(const Vector& x, double alpha)
{
    Vector out(x);
    for (double& v : out)
        v *= alpha;
    return out;
}

} // namespace lognic::solver
