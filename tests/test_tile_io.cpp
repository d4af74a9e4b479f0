// Binary serialisation of the tile format, and the tile-native AA^T path.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/spgemm_context.h"
#include "core/tile_io.h"
#include "core/tile_spgemm.h"
#include "gen/generators.h"
#include "matrix/transpose.h"
#include "test_support.h"

namespace tsg {
namespace {

TEST(TileIo, StreamRoundTripDouble) {
  for (auto make : {test::make_er_small, test::make_band, test::make_blocks,
                    test::make_rmat_small, test::make_hyper_sparse}) {
    const Csr<double> a = make();
    const TileMatrix<double> t = csr_to_tile(a);
    std::stringstream buf;
    write_tile_binary(buf, t);
    const TileMatrix<double> back = read_tile_binary<double>(buf);
    ASSERT_TRUE(back.validate().empty()) << back.validate();
    test::expect_equal(a, tile_to_csr(back), "tile io round trip", 1e-15);
  }
}

TEST(TileIo, StreamRoundTripFloat) {
  const Csr<float> a = gen::cast_values<float>(gen::banded(100, 4, 1));
  const TileMatrix<float> t = csr_to_tile(a);
  std::stringstream buf;
  write_tile_binary(buf, t);
  const TileMatrix<float> back = read_tile_binary<float>(buf);
  EXPECT_EQ(back.nnz(), t.nnz());
  EXPECT_TRUE(back.validate().empty());
}

TEST(TileIo, FileRoundTrip) {
  const Csr<double> a = gen::rmat(8, 5.0, 2);
  const std::string path = ::testing::TempDir() + "/tsg_tile_io.bin";
  write_tile_file(path, csr_to_tile(a));
  const TileMatrix<double> back = read_tile_file<double>(path);
  test::expect_equal(a, tile_to_csr(back), "tile file round trip", 1e-15);
}

TEST(TileIo, EmptyMatrixRoundTrip) {
  const TileMatrix<double> t = csr_to_tile(Csr<double>(33, 47));
  std::stringstream buf;
  write_tile_binary(buf, t);
  const TileMatrix<double> back = read_tile_binary<double>(buf);
  EXPECT_EQ(back.rows, 33);
  EXPECT_EQ(back.cols, 47);
  EXPECT_EQ(back.num_tiles(), 0);
}

TEST(TileIo, RejectsCorruptedInput) {
  const TileMatrix<double> t = csr_to_tile(gen::banded(50, 2, 3));
  {
    std::stringstream buf;
    write_tile_binary(buf, t);
    std::string payload = buf.str();
    payload[0] ^= 0x5A;  // break the magic
    std::istringstream in(payload);
    EXPECT_THROW(read_tile_binary<double>(in), std::runtime_error);
  }
  {
    std::stringstream buf;
    write_tile_binary(buf, t);
    std::string payload = buf.str();
    payload.resize(payload.size() / 2);  // truncate
    std::istringstream in(payload);
    EXPECT_THROW(read_tile_binary<double>(in), std::runtime_error);
  }
  {
    // Value-type mismatch: written as double, read as float.
    std::stringstream buf;
    write_tile_binary(buf, t);
    EXPECT_THROW(read_tile_binary<float>(buf), std::runtime_error);
  }
}

TEST(TileIo, RejectsInternallyInconsistentPayload) {
  TileMatrix<double> t = csr_to_tile(gen::banded(50, 2, 4));
  t.mask[0] ^= 1;  // violate mask/index consistency
  std::stringstream buf;
  write_tile_binary(buf, t);
  EXPECT_THROW(read_tile_binary<double>(buf), std::runtime_error);
}

TEST(TileIo, MissingFileThrows) {
  EXPECT_THROW(read_tile_file<double>("/no/such/tile.bin"), std::runtime_error);
}

// ---------------------------------------------------------------- AA^T --

/// C = A * A^T, the transpose formed tile-natively.
TileSpgemmResult<double> aat(const TileMatrix<double>& a) {
  return SpgemmContext{}
      .try_run(Request<TileMatrix<double>>{.a = &a, .b = &a, .transpose_b = true})
      .value();
}

TEST(TileAat, MatchesCsrTransposePath) {
  for (std::uint64_t seed : {10ull, 11ull, 12ull}) {
    const Csr<double> a = gen::erdos_renyi(130, 90, 900, seed);
    const TileSpgemmResult<double> res = aat(csr_to_tile(a));
    ASSERT_TRUE(res.c.validate().empty()) << res.c.validate();
    const Csr<double> expected = spgemm_reference(a, transpose(a));
    test::expect_equal(expected, tile_to_csr(res.c), "aat");
  }
}

TEST(TileAat, ResultIsSymmetricForSquareInput) {
  const Csr<double> a = gen::rmat(8, 4.0, 13);
  const TileSpgemmResult<double> res = aat(csr_to_tile(a));
  const Csr<double> c = tile_to_csr(res.c);
  test::expect_equal(c, transpose(c), "aat symmetry");
}

}  // namespace
}  // namespace tsg
