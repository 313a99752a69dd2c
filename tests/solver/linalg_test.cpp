#include "lognic/solver/linalg.hpp"

#include <gtest/gtest.h>

namespace lognic::solver {
namespace {

TEST(Matrix, InitializerListAndIndexing)
{
    const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 2u);
    EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows)
{
    EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityAndMultiply)
{
    const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    const Matrix i{{1.0, 0.0}, {0.0, 1.0}};
    const Matrix ai = a * i;
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_DOUBLE_EQ(ai(r, c), a(r, c));
}

TEST(Matrix, MultiplyKnownProduct)
{
    const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
    const Matrix b{{7.0, 8.0}, {9.0, 10.0}, {11.0, 12.0}};
    const Matrix p = a * b;
    EXPECT_DOUBLE_EQ(p(0, 0), 58.0);
    EXPECT_DOUBLE_EQ(p(0, 1), 64.0);
    EXPECT_DOUBLE_EQ(p(1, 0), 139.0);
    EXPECT_DOUBLE_EQ(p(1, 1), 154.0);
}

TEST(Matrix, ShapeMismatchThrows)
{
    const Matrix a(2, 3);
    const Matrix b(2, 3);
    EXPECT_THROW(a * b, std::invalid_argument);
    const Vector v{1.0, 2.0};
    EXPECT_THROW(a * v, std::invalid_argument);
}

TEST(Matrix, TransposeRoundTrip)
{
    const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
    const Matrix t = a.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    const Matrix tt = t.transposed();
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_DOUBLE_EQ(tt(r, c), a(r, c));
}

TEST(SolveLu, SolvesKnownSystem)
{
    const Matrix a{{2.0, 1.0, -1.0}, {-3.0, -1.0, 2.0}, {-2.0, 1.0, 2.0}};
    const Vector x = solve_lu(a, {8.0, -11.0, -3.0});
    ASSERT_EQ(x.size(), 3u);
    EXPECT_NEAR(x[0], 2.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
    EXPECT_NEAR(x[2], -1.0, 1e-12);
}

TEST(SolveLu, PivotsZeroDiagonal)
{
    // Naive elimination without pivoting dies on the leading zero.
    const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
    const Vector x = solve_lu(a, {3.0, 7.0});
    EXPECT_NEAR(x[0], 7.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveLu, SingularThrows)
{
    const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
    EXPECT_THROW(solve_lu(a, {1.0, 2.0}), std::runtime_error);
}

TEST(SolveCholesky, SolvesSpdSystem)
{
    const Matrix a{{4.0, 2.0}, {2.0, 3.0}};
    const Vector x = solve_cholesky(a, {10.0, 8.0});
    // Verify by substitution.
    const Vector back = a * x;
    EXPECT_NEAR(back[0], 10.0, 1e-12);
    EXPECT_NEAR(back[1], 8.0, 1e-12);
}

TEST(SolveCholesky, NonSpdThrows)
{
    const Matrix a{{1.0, 2.0}, {2.0, 1.0}}; // indefinite
    EXPECT_THROW(solve_cholesky(a, {1.0, 1.0}), std::runtime_error);
}

TEST(SolveCholesky, AgreesWithLu)
{
    const Matrix a{{6.0, 2.0, 1.0}, {2.0, 5.0, 2.0}, {1.0, 2.0, 4.0}};
    const Vector b{1.0, -2.0, 3.0};
    const Vector x1 = solve_cholesky(a, b);
    const Vector x2 = solve_lu(a, b);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_NEAR(x1[i], x2[i], 1e-10);
}

TEST(VectorHelpers, AxpyScaled)
{
    const Vector a{1.0, 2.0, 3.0};
    const Vector b{4.0, -5.0, 6.0};
    const Vector c = axpy(2.0, a, b);
    EXPECT_DOUBLE_EQ(c[0], 6.0);
    EXPECT_DOUBLE_EQ(c[1], -1.0);
    EXPECT_DOUBLE_EQ(c[2], 12.0);
    const Vector s = scaled(a, -1.0);
    EXPECT_DOUBLE_EQ(s[2], -3.0);
}

} // namespace
} // namespace lognic::solver
