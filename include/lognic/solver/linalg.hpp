/**
 * @file
 * Minimal dense linear algebra for the solver module.
 *
 * Levenberg-Marquardt only ever solves small (dimension <= a few dozen)
 * dense normal equations, so this is a straightforward row-major matrix
 * with a Cholesky factorization (LU with partial pivoting is kept as its
 * test reference) — no BLAS, no expression templates, no allocation
 * tricks.
 */
#ifndef LOGNIC_SOLVER_LINALG_HPP_
#define LOGNIC_SOLVER_LINALG_HPP_

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace lognic::solver {

using Vector = std::vector<double>;

/// Dense row-major matrix.
class Matrix {
  public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
    /// Build from nested braces; all rows must have equal length.
    Matrix(std::initializer_list<std::initializer_list<double>> rows);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    double& operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    Matrix transposed() const;
    Matrix operator*(const Matrix& rhs) const;
    Vector operator*(const Vector& v) const;

  private:
    std::size_t rows_{0};
    std::size_t cols_{0};
    std::vector<double> data_;
};

/**
 * Solve A x = b by LU factorization with partial pivoting.
 *
 * @throws std::invalid_argument on shape mismatch.
 * @throws std::runtime_error if A is (numerically) singular.
 */
Vector solve_lu(Matrix a, Vector b);

/**
 * Solve A x = b for symmetric positive definite A via Cholesky.
 *
 * @throws std::runtime_error if A is not positive definite.
 */
Vector solve_cholesky(const Matrix& a, const Vector& b);

// --- Vector helpers ----------------------------------------------------------

Vector axpy(double alpha, const Vector& x, const Vector& y); ///< alpha*x + y
Vector scaled(const Vector& x, double alpha);

} // namespace lognic::solver

#endif // LOGNIC_SOLVER_LINALG_HPP_
