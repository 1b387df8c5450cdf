// End-to-end integration tests: action invocation over the real network
// stack (fabric -> minimpi/minilci -> parcelport -> runtime) for EVERY
// parcelport configuration in the paper's Table 1, plus the ablation
// variants (mpi_fine, mpi_orig). Also covers the wire-header encoding,
// cross-configuration message equivalence and the memory a stack faults in
// while it is built.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <csignal>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "amt/wire_header.hpp"
#include "common/crc32.hpp"
#include "stack/stack.hpp"
#include "test_util.hpp"

using amt::Latch;
using amtnet::StackOptions;

// ---------------- wire header unit tests ----------------

namespace {

amt::OutMessage make_msg(std::size_t main_size,
                         std::vector<std::size_t> zsizes) {
  amt::OutMessage msg;
  msg.main_chunk.resize(main_size, std::byte{0x5a});
  for (std::size_t i = 0; i < zsizes.size(); ++i) {
    auto owned = std::make_shared<std::vector<std::byte>>(
        zsizes[i], static_cast<std::byte>(i + 1));
    msg.zchunks.push_back(
        amt::ZChunk{owned->data(), owned->size(), owned});
  }
  return msg;
}

}  // namespace

TEST(WireHeader, SmallMessageFullyPiggybacked) {
  const auto msg = make_msg(100, {});
  const auto plan = amt::HeaderPlan::decide(msg, 8192);
  EXPECT_TRUE(plan.piggy_main);
  EXPECT_FALSE(plan.piggy_tchunk);
  EXPECT_EQ(plan.num_followups(msg), 0u);
}

TEST(WireHeader, LargeMainBecomesFollowup) {
  const auto msg = make_msg(10000, {});
  const auto plan = amt::HeaderPlan::decide(msg, 8192);
  EXPECT_FALSE(plan.piggy_main);
  EXPECT_EQ(plan.num_followups(msg), 1u);
}

TEST(WireHeader, ZchunksAddFollowups) {
  const auto msg = make_msg(100, {20000, 30000});
  const auto plan = amt::HeaderPlan::decide(msg, 8192);
  EXPECT_TRUE(plan.piggy_main);
  EXPECT_TRUE(plan.piggy_tchunk);
  EXPECT_EQ(plan.num_followups(msg), 2u);  // just the two zero-copy chunks
}

TEST(WireHeader, EncodeDecodeRoundTrip) {
  const auto msg = make_msg(64, {9000});
  const auto plan = amt::HeaderPlan::decide(msg, 8192);
  std::vector<std::byte> wire;
  amt::encode_header(msg, plan, 1234, /*seq=*/7, wire);
  EXPECT_LE(wire.size(), 8192u);
  const auto decoded = amt::decode_header(wire.data(), wire.size());
  EXPECT_EQ(decoded.fields.tag, 1234u);
  EXPECT_EQ(decoded.fields.seq, 7u);
  EXPECT_EQ(decoded.fields.num_zchunks, 1u);
  EXPECT_EQ(decoded.fields.main_size, 64u);
  ASSERT_TRUE(decoded.fields.piggy_main);
  EXPECT_EQ(decoded.piggy_main.size(), 64u);
  ASSERT_TRUE(decoded.fields.piggy_tchunk);
  const auto sizes = amt::parse_tchunk(decoded.piggy_tchunk.data(),
                                       decoded.piggy_tchunk.size());
  ASSERT_EQ(sizes.size(), 1u);
  EXPECT_EQ(sizes[0], 9000u);
}

TEST(WireHeader, OriginalPolicyFixed512NoTchunkPiggyback) {
  const auto small = make_msg(100, {20000});
  auto plan = amt::HeaderPlan::decide_original(small);
  EXPECT_TRUE(plan.piggy_main);
  EXPECT_FALSE(plan.piggy_tchunk);     // the original never piggybacks it
  EXPECT_EQ(plan.num_followups(small), 2u);  // tchunk + zchunk

  const auto big = make_msg(600, {});  // does not fit in 512 bytes
  plan = amt::HeaderPlan::decide_original(big);
  EXPECT_FALSE(plan.piggy_main);
}

// ---------------- batch frame: the one eager frame ----------------

namespace {

// Recomputes and patches the CRC after a deliberate field edit, so the
// tests below exercise the *structural* validation rather than tripping
// over the checksum first. Both frame kinds end their fixed header with the
// u32 CRC of the whole frame (CRC field as zero).
void repatch_crc(std::vector<std::byte>& frame, std::size_t crc_offset) {
  const std::uint32_t zero = 0;
  std::memcpy(frame.data() + crc_offset, &zero, sizeof(zero));
  const std::uint32_t crc = common::crc32(frame.data(), frame.size());
  std::memcpy(frame.data() + crc_offset, &crc, sizeof(crc));
}

void repatch_batch_crc(std::vector<std::byte>& frame) {
  repatch_crc(frame, offsetof(amt::BatchHeader, crc));
}

std::vector<std::byte> encode_batch(
    const std::vector<const amt::OutMessage*>& msgs, std::uint32_t seq) {
  std::vector<std::byte> frame(
      amt::batch_frame_size(msgs.data(), msgs.size()));
  EXPECT_EQ(amt::encode_batch_to(msgs.data(), msgs.size(), seq, frame.data(),
                                 frame.size()),
            frame.size());
  return frame;
}

std::vector<amt::InMessage> take_all(std::vector<std::byte>&& frame,
                                     amt::Rank source) {
  std::vector<amt::InMessage> out;
  amt::take_batch_entries(std::move(frame), source,
                          [&out](amt::InMessage&& in) {
                            out.push_back(std::move(in));
                          });
  return out;
}

}  // namespace

TEST(BatchFrame, CountOneRoundTripWithZchunksReusesArrivalBuffer) {
  const auto msg = make_msg(64, {100, 200});
  const std::size_t frame_size = amt::batch_frame_size(msg);
  EXPECT_EQ(frame_size, 24u + 2 * 8 + 64 + 100 + 200);
  auto frame = encode_batch({&msg}, /*seq=*/42);
  ASSERT_EQ(frame.size(), frame_size);

  const amt::BatchHeader header = amt::decode_batch(frame.data(), frame.size());
  EXPECT_EQ(header.seq, 42u);
  EXPECT_EQ(header.count, 1u);

  const std::byte* const arrival = frame.data();
  const auto in = take_all(std::move(frame), /*source=*/7);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].source, 7);
  ASSERT_EQ(in[0].main_chunk.size(), 64u);
  EXPECT_EQ(in[0].main_chunk[63], std::byte{0x5a});
  // The last (here: only) entry's main chunk is the arrival buffer, trimmed
  // in place — no second allocation on the fast path.
  EXPECT_EQ(in[0].main_chunk.data(), arrival);
  ASSERT_EQ(in[0].zchunks.size(), 2u);
  ASSERT_EQ(in[0].zchunks[0].size(), 100u);
  EXPECT_EQ(in[0].zchunks[0][99], std::byte{1});
  ASSERT_EQ(in[0].zchunks[1].size(), 200u);
  EXPECT_EQ(in[0].zchunks[1][0], std::byte{2});
}

TEST(BatchFrame, CountOneMainOnlyFrameIsHeaderPlusPayload) {
  const auto msg = make_msg(512, {});
  auto frame = encode_batch({&msg}, /*seq=*/0);
  EXPECT_EQ(frame.size(), 24u + 512);
  EXPECT_EQ(amt::decode_batch(frame.data(), frame.size()).count, 1u);
  const auto in = take_all(std::move(frame), /*source=*/1);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].main_chunk.size(), 512u);
  EXPECT_TRUE(in[0].zchunks.empty());
}

TEST(BatchFrame, RoundTripThreeParcelsWithZchunks) {
  const auto m0 = make_msg(8, {});
  const auto m1 = make_msg(64, {100, 200});
  const auto m2 = make_msg(0, {50});
  auto frame = encode_batch({&m0, &m1, &m2}, /*seq=*/9);

  const amt::BatchHeader header = amt::decode_batch(frame.data(), frame.size());
  EXPECT_EQ(header.count, 3u);
  EXPECT_EQ(header.seq, 9u);

  const auto in = take_all(std::move(frame), /*source=*/5);
  ASSERT_EQ(in.size(), 3u);
  EXPECT_EQ(in[0].source, 5);
  ASSERT_EQ(in[0].main_chunk.size(), 8u);
  EXPECT_EQ(in[0].main_chunk[7], std::byte{0x5a});
  EXPECT_TRUE(in[0].zchunks.empty());

  ASSERT_EQ(in[1].main_chunk.size(), 64u);
  EXPECT_EQ(in[1].main_chunk[0], std::byte{0x5a});
  ASSERT_EQ(in[1].zchunks.size(), 2u);
  ASSERT_EQ(in[1].zchunks[0].size(), 100u);
  EXPECT_EQ(in[1].zchunks[0][99], std::byte{1});
  ASSERT_EQ(in[1].zchunks[1].size(), 200u);
  EXPECT_EQ(in[1].zchunks[1][0], std::byte{2});

  EXPECT_EQ(in[2].source, 5);
  EXPECT_TRUE(in[2].main_chunk.empty());
  ASSERT_EQ(in[2].zchunks.size(), 1u);
  EXPECT_EQ(in[2].zchunks[0].size(), 50u);
}

TEST(BatchFrame, MinimalOneParcelFrameMatchesTheParseFloor) {
  // The agg<BYTES> parse floor is exactly the smallest encodable frame: a
  // zero-payload single parcel. If the layout grows, the constant (and the
  // config error message) must follow.
  const auto msg = make_msg(0, {});
  EXPECT_EQ(amt::batch_frame_size(msg), amt::kMinAggFrameBytes);
  EXPECT_EQ(amt::kMinAggFrameBytes, 24u);
}

TEST(BatchFrameDeathTest, CorruptedPayloadFailsFast) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto m0 = make_msg(32, {});
  const auto m1 = make_msg(16, {});
  auto frame = encode_batch({&m0, &m1}, /*seq=*/1);
  frame[frame.size() - 5] ^= std::byte{0x20};
  EXPECT_DEATH(amt::decode_batch(frame.data(), frame.size()),
               "batch frame CRC mismatch");
}

TEST(BatchFrameDeathTest, TruncatedFrameFailsFast) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<std::byte> frame(8, std::byte{0});
  EXPECT_DEATH(amt::decode_batch(frame.data(), frame.size()),
               "batch frame truncated");
}

TEST(BatchFrameDeathTest, ForeignFrameKindFailsFast) {
  // A regular wire header routed onto the fast-path tag must be rejected
  // by the magic check, not mis-parsed as a batch.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto msg = make_msg(64, {});
  const auto plan = amt::HeaderPlan::decide(msg, 8192);
  std::vector<std::byte> wire;
  amt::encode_header(msg, plan, 9, /*seq=*/0, wire);
  EXPECT_DEATH(amt::decode_batch(wire.data(), wire.size()),
               "batch frame bad magic");
}

TEST(BatchFrameDeathTest, ZeroCountFailsFastEvenWithValidCrc) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto msg = make_msg(16, {});
  auto frame = encode_batch({&msg}, /*seq=*/0);
  const std::uint32_t zero_count = 0;
  std::memcpy(frame.data() + offsetof(amt::BatchHeader, count), &zero_count,
              sizeof(zero_count));
  repatch_batch_crc(frame);
  EXPECT_DEATH(amt::decode_batch(frame.data(), frame.size()),
               "batch frame bad count");
}

TEST(BatchFrameDeathTest, OverdeclaredEntryLengthFailsFast) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto msg = make_msg(16, {});
  auto frame = encode_batch({&msg}, /*seq=*/0);
  const std::size_t main_size_at =
      sizeof(amt::BatchHeader) + offsetof(amt::BatchEntryHeader, main_size);
  std::uint32_t main_size = 0;
  std::memcpy(&main_size, frame.data() + main_size_at, sizeof(main_size));
  main_size += 8;
  std::memcpy(frame.data() + main_size_at, &main_size, sizeof(main_size));
  repatch_batch_crc(frame);
  EXPECT_DEATH(amt::decode_batch(frame.data(), frame.size()),
               "batch entry 0 overruns frame");
}

TEST(BatchFrameDeathTest, DeclaredLengthsMustCoverFrameExactly) {
  // A re-checksummed frame whose entries leave trailing bytes unaccounted
  // for still dies (e.g. a maliciously shortened entry).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto msg = make_msg(64, {});
  auto frame = encode_batch({&msg}, /*seq=*/0);
  const std::size_t main_size_at =
      sizeof(amt::BatchHeader) + offsetof(amt::BatchEntryHeader, main_size);
  const std::uint32_t bad_main = 63;
  std::memcpy(frame.data() + main_size_at, &bad_main, sizeof(bad_main));
  repatch_batch_crc(frame);
  EXPECT_DEATH(amt::decode_batch(frame.data(), frame.size()),
               "batch frame size mismatch");
}

// ---------------- seeded mutations of the frame decoders ----------------

namespace mutation {

enum class Decoder { kBatch, kHeader };

struct Base {
  Decoder decoder;
  std::vector<std::byte> frame;
  // Integer fields a mutation may rewrite: {offset, width in bytes}.
  std::vector<std::pair<std::size_t, std::size_t>> fields;
};

std::size_t crc_offset(Decoder decoder) {
  return decoder == Decoder::kBatch ? offsetof(amt::BatchHeader, crc)
                                    : offsetof(amt::WireHeader, crc);
}

std::size_t fixed_header_size(Decoder decoder) {
  return decoder == Decoder::kBatch ? sizeof(amt::BatchHeader)
                                    : sizeof(amt::WireHeader);
}

Base batch_base(const std::vector<const amt::OutMessage*>& msgs) {
  Base base{Decoder::kBatch, encode_batch(msgs, /*seq=*/3), {}};
  base.fields.push_back({offsetof(amt::BatchHeader, count), 4});
  std::size_t offset = sizeof(amt::BatchHeader);
  for (const amt::OutMessage* msg : msgs) {
    base.fields.push_back(
        {offset + offsetof(amt::BatchEntryHeader, num_zchunks), 4});
    base.fields.push_back(
        {offset + offsetof(amt::BatchEntryHeader, main_size), 4});
    for (std::size_t z = 0; z < msg->zchunks.size(); ++z) {
      base.fields.push_back(
          {offset + sizeof(amt::BatchEntryHeader) + z * 8, 8});
    }
    offset += amt::batch_entry_size(*msg);
  }
  return base;
}

Base header_base(const amt::OutMessage& msg) {
  Base base{Decoder::kHeader, {}, {}};
  const auto plan = amt::HeaderPlan::decide(msg, 8192);
  amt::encode_header(msg, plan, /*tag=*/11, /*seq=*/3, base.frame);
  base.fields = {{offsetof(amt::WireHeader, num_zchunks), 2},
                 {offsetof(amt::WireHeader, piggy_main), 1},
                 {offsetof(amt::WireHeader, piggy_tchunk), 1},
                 {offsetof(amt::WireHeader, main_size), 8}};
  if (plan.piggy_tchunk) {
    for (std::size_t z = 0; z < msg.zchunks.size(); ++z) {
      base.fields.push_back({sizeof(amt::WireHeader) + z * 8, 8});
    }
  }
  return base;
}

// Runs in the death-test child: decodes `frame` and, when the decoder
// accepts it, checks that everything it hands out lies inside the frame.
// Exits 0 with a marker on success; a rejected frame dies in the decoder
// with INTEGRITY FAILURE.
[[noreturn]] void decode_or_die(Decoder decoder, std::vector<std::byte> frame) {
  const std::size_t size = frame.size();
  bool in_bounds = false;
  if (decoder == Decoder::kBatch) {
    const amt::BatchHeader header = amt::decode_batch(frame.data(), size);
    std::size_t accounted = sizeof(amt::BatchHeader);
    std::uint32_t entries = 0;
    amt::take_batch_entries(std::move(frame), 0, [&](amt::InMessage&& in) {
      ++entries;
      accounted += sizeof(amt::BatchEntryHeader) + in.main_chunk.size();
      for (const auto& z : in.zchunks) accounted += 8 + z.size();
    });
    in_bounds = entries == header.count && accounted == size;
  } else {
    const auto decoded = amt::decode_header(frame.data(), size);
    const amt::WireHeader& fields = decoded.fields;
    const std::size_t tchunk =
        fields.piggy_tchunk ? std::size_t{fields.num_zchunks} * 8 : 0;
    const std::size_t main = fields.piggy_main ? decoded.piggy_main.size() : 0;
    in_bounds = decoded.piggy_tchunk.size() == tchunk &&
                (!fields.piggy_main || main == fields.main_size) &&
                sizeof(amt::WireHeader) + tchunk + main <= size;
  }
  std::fprintf(stderr, in_bounds ? "DECODED IN BOUNDS\n" : "DECODED OUT OF "
                                                           "BOUNDS\n");
  std::fflush(stderr);
  std::_Exit(in_bounds ? 0 : 1);
}

bool decoded_or_integrity_abort(int status) {
  return (WIFEXITED(status) && WEXITSTATUS(status) == 0) ||
         (WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT);
}

}  // namespace mutation

TEST(FrameDecoderMutationDeathTest, SeededCasesDecodeInBoundsOrFailFast) {
  // A deterministic mutation sweep over decode_batch and decode_header:
  // every count/size field set to its maximum and to one past its value,
  // then seeded bit flips, truncations, appended bytes and random field
  // values. All but the plain bit flips re-patch the CRC, so the structural
  // checks are what must trip. Every case either decodes with every entry
  // inside the frame or dies with INTEGRITY FAILURE; any other death (a
  // segfault, an assert, a sanitizer report) fails the test. The cases run
  // one after another, each in its own forked child.
  const std::string saved_style = ::testing::FLAGS_gtest_death_test_style;
  ::testing::FLAGS_gtest_death_test_style = "fast";
  const auto m0 = make_msg(8, {});
  const auto m1 = make_msg(64, {100, 200});
  const auto m2 = make_msg(0, {50});
  const auto m3 = make_msg(40, {9000, 20000});
  const std::vector<mutation::Base> bases = {
      mutation::batch_base({&m0}),
      mutation::batch_base({&m1}),
      mutation::batch_base({&m0, &m1, &m2}),
      mutation::header_base(make_msg(100, {})),
      mutation::header_base(m3),
  };
  int cases = 0;
  const auto check = [&](const mutation::Base& base,
                         std::vector<std::byte> frame, bool repatch,
                         const std::string& what) {
    if (repatch) repatch_crc(frame, mutation::crc_offset(base.decoder));
    ++cases;
    EXPECT_EXIT(mutation::decode_or_die(base.decoder, std::move(frame)),
                mutation::decoded_or_integrity_abort,
                "DECODED IN BOUNDS|INTEGRITY FAILURE")
        << what;
  };
  const auto set_field = [](std::vector<std::byte>& frame,
                            std::pair<std::size_t, std::size_t> field,
                            std::uint64_t value) {
    std::memcpy(frame.data() + field.first, &value, field.second);
  };
  const auto field_value = [](const std::vector<std::byte>& frame,
                              std::pair<std::size_t, std::size_t> field) {
    std::uint64_t value = 0;
    std::memcpy(&value, frame.data() + field.first, field.second);
    return value;
  };

  // Systematic: each field at its maximum (sums that wrap) and one past its
  // encoded value (off-by-one overruns).
  for (std::size_t b = 0; b < bases.size(); ++b) {
    const mutation::Base& base = bases[b];
    for (const auto& field : base.fields) {
      const std::uint64_t value = field_value(base.frame, field);
      for (const std::uint64_t edit : {~std::uint64_t{0}, value + 1}) {
        std::vector<std::byte> frame = base.frame;
        set_field(frame, field, edit);
        check(base, std::move(frame), true,
              "base " + std::to_string(b) + " field at " +
                  std::to_string(field.first) + " = " + std::to_string(edit));
      }
    }
  }

  // Seeded random mutations.
  std::mt19937_64 rng(0x5eedf00du);
  for (int i = 0; i < 64; ++i) {
    const std::size_t b = rng() % bases.size();
    const mutation::Base& base = bases[b];
    std::vector<std::byte> frame = base.frame;
    bool repatch = true;
    const int kind = static_cast<int>(rng() % 5);
    switch (kind) {
      case 0:  // one bit flip, CRC left stale
        frame[rng() % frame.size()] ^= std::byte{1} << (rng() % 8);
        repatch = false;
        break;
      case 1:  // up to three bit flips
        for (std::uint64_t n = 1 + rng() % 3; n > 0; --n) {
          frame[rng() % frame.size()] ^= std::byte{1} << (rng() % 8);
        }
        break;
      case 2:  // truncation, CRC re-patched when the header survives
        frame.resize(rng() % frame.size());
        repatch = frame.size() >= mutation::fixed_header_size(base.decoder);
        break;
      case 3:  // a random value in a random field
        set_field(frame, base.fields[rng() % base.fields.size()], rng());
        break;
      default:  // trailing garbage
        for (std::uint64_t n = 1 + rng() % 16; n > 0; --n) {
          frame.push_back(static_cast<std::byte>(rng()));
        }
        break;
    }
    check(base, std::move(frame), repatch,
          "random case " + std::to_string(i) + " kind " +
              std::to_string(kind) + " base " + std::to_string(b));
  }
  EXPECT_LE(cases, 128);
  ::testing::FLAGS_gtest_death_test_style = saved_style;
}

// ---------------- end-to-end over every configuration ----------------

namespace e2e {

std::atomic<std::uint64_t> counter{0};
std::atomic<std::uint64_t> large_checksum{0};

void bump(std::uint64_t amount) { counter.fetch_add(amount); }

std::uint64_t echo_add(std::uint64_t value) { return value + 1; }

double dot(std::vector<double> a, std::vector<double> b) {
  double sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

void consume(std::vector<std::uint64_t> values) {
  std::uint64_t sum = 0;
  for (auto v : values) sum += v;
  large_checksum.fetch_add(sum);
}

std::vector<double> make_data(std::uint64_t n) {
  return std::vector<double>(n, 2.0);
}

}  // namespace e2e

class ParcelportE2E : public ::testing::TestWithParam<const char*> {
 protected:
  StackOptions options() const {
    StackOptions options;
    options.parcelport = GetParam();
    options.num_localities = 2;
    options.threads_per_locality = 2;
    options.platform = "loopback";
    return options;
  }
};

TEST_P(ParcelportE2E, SmallActionRoundTrip) {
  auto runtime = amtnet::make_runtime(options());
  std::uint64_t result = 0;
  Latch done(1);
  runtime->locality(0).spawn([&] {
    result = amt::here().async<&e2e::echo_add>(1, std::uint64_t{41}).get();
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  EXPECT_EQ(result, 42u);
  runtime->stop();
}

TEST_P(ParcelportE2E, LargeArgumentsUseZeroCopyPath) {
  auto runtime = amtnet::make_runtime(options());
  double result = 0;
  Latch done(1);
  // Two 32 KiB vectors: header + 2 zero-copy chunks over the wire.
  std::vector<double> a(4096, 2.0), b(4096, 3.0);
  runtime->locality(0).spawn([&] {
    result = amt::here().async<&e2e::dot>(1, a, b).get();
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  EXPECT_DOUBLE_EQ(result, 4096.0 * 6.0);
  runtime->stop();
}

TEST_P(ParcelportE2E, MediumMainChunkFollowup) {
  // A ~16 KiB inline payload: too big to piggyback, too small for a
  // zero-copy chunk with a huge threshold -> exercises the separate
  // non-zero-copy-chunk follow-up message.
  StackOptions opts = options();
  opts.zero_copy_threshold = 64 * 1024;
  auto runtime = amtnet::make_runtime(opts);
  e2e::large_checksum.store(0);
  std::vector<std::uint64_t> values(2000);
  std::iota(values.begin(), values.end(), 1ull);
  const std::uint64_t expected =
      std::accumulate(values.begin(), values.end(), 0ull);
  runtime->locality(0).spawn(
      [&] { amt::here().apply<&e2e::consume>(1, values); });
  ASSERT_TRUE(testutil::spin_until(
      [&] { return e2e::large_checksum.load() == expected; },
      std::chrono::milliseconds(10000)));
  runtime->stop();
}

TEST_P(ParcelportE2E, ManyConcurrentParcels) {
  auto runtime = amtnet::make_runtime(options());
  e2e::counter.store(0);
  constexpr int kParcels = 400;
  // Fire from both localities at once, in both directions.
  for (amt::Rank r = 0; r < 2; ++r) {
    runtime->locality(r).spawn([&, r] {
      for (int i = 1; i <= kParcels; ++i) {
        amt::here().apply<&e2e::bump>(1 - r,
                                      static_cast<std::uint64_t>(i));
      }
    });
  }
  const std::uint64_t expected =
      2ull * kParcels * (kParcels + 1) / 2;
  ASSERT_TRUE(testutil::spin_until(
      [&] { return e2e::counter.load() == expected; },
      std::chrono::milliseconds(20000)));
  runtime->stop();
}

TEST_P(ParcelportE2E, ResultsComingBackLarge) {
  auto runtime = amtnet::make_runtime(options());
  std::vector<double> result;
  Latch done(1);
  runtime->locality(0).spawn([&] {
    result =
        amt::here().async<&e2e::make_data>(1, std::uint64_t{5000}).get();
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  ASSERT_EQ(result.size(), 5000u);
  EXPECT_DOUBLE_EQ(result[4999], 2.0);
  runtime->stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ParcelportE2E,
    ::testing::Values(
        // MPI parcelport + ablations
        "mpi", "mpi_i", "mpi_fine_i", "mpi_orig", "mpi_orig_i",
        // LCI parcelport: all 8 variant combinations, with and without the
        // send-immediate optimisation for the baseline axes
        "lci_psr_cq_pin", "lci_psr_cq_pin_i", "lci_psr_cq_mt_i",
        "lci_psr_sy_pin_i", "lci_psr_sy_mt_i", "lci_sr_cq_pin_i",
        "lci_sr_cq_mt_i", "lci_sr_sy_pin_i", "lci_sr_sy_mt_i",
        "lci_sr_sy_mt"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

// ---------------- pipelined follow-ups: out-of-order completions ----------

namespace e2e {

// Order-sensitive digest over four zero-copy chunks: any cross-chunk mixup
// or intra-chunk corruption changes the result.
std::uint64_t ordered_digest(std::vector<std::uint64_t> a,
                             std::vector<std::uint64_t> b,
                             std::vector<std::uint64_t> c,
                             std::vector<std::uint64_t> d) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::vector<std::uint64_t>& v) {
    h = h * 1099511628211ull + v.size();
    for (std::uint64_t x : v) h = h * 1099511628211ull + x;
  };
  mix(a);
  mix(b);
  mix(c);
  mix(d);
  return h;
}

std::vector<std::uint64_t> make_chunk(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = seed * 1000003ull + i;
  return v;
}

}  // namespace e2e

// Multi-zchunk parcels over a 4-rail fabric: the sender posts every piece
// eagerly, rails deliver them out of order, and the receiver must route each
// completion to the right buffer slot by tag. Covers all 8 LCI variant
// combinations plus pipeline-depth regression configs (pd1 = the old
// serialized walk must still work and stay reachable).
class LciPipelineE2E : public ::testing::TestWithParam<const char*> {};

TEST_P(LciPipelineE2E, MultiZchunkIntegrityAcrossReorderingFabric) {
  StackOptions options;
  options.parcelport = GetParam();
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.platform = "loopback";
  options.fabric_rails = 4;  // unordered delivery across pieces
  auto runtime = amtnet::make_runtime(options);
  Latch done(1);
  bool all_ok = false;
  runtime->locality(0).spawn([&] {
    bool ok = true;
    for (std::uint64_t round = 0; round < 6; ++round) {
      // Four 16 KiB chunks (over the 8 KiB zero-copy threshold): header +
      // 4 zero-copy follow-ups, all in flight at once.
      auto a = e2e::make_chunk(2048, 4 * round + 1);
      auto b = e2e::make_chunk(2048, 4 * round + 2);
      auto c = e2e::make_chunk(2048, 4 * round + 3);
      auto d = e2e::make_chunk(2048, 4 * round + 4);
      const std::uint64_t expected = e2e::ordered_digest(a, b, c, d);
      const std::uint64_t got =
          amt::here().async<&e2e::ordered_digest>(1, a, b, c, d).get();
      ok = ok && got == expected;
    }
    all_ok = ok;
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  EXPECT_TRUE(all_ok);
  runtime->stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllLciVariants, LciPipelineE2E,
    ::testing::Values("lci_psr_cq_pin", "lci_psr_cq_mt", "lci_psr_sy_pin",
                      "lci_psr_sy_mt", "lci_sr_cq_pin", "lci_sr_cq_mt",
                      "lci_sr_sy_pin", "lci_sr_sy_mt",
                      // regression: bounded depths, incl. the old serialized
                      // behaviour (depth 1)
                      "lci_psr_cq_pin_pd1_i", "lci_sr_sy_mt_pd1",
                      "lci_psr_cq_mt_pd4_i"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

// ---------------- small-parcel fast path, end to end ----------------

// Every LCI variant combination with the fast path pinned on, over a 4-rail
// reordering fabric: small parcels ride count-1 batch frames (medium sends
// under sr, dynamic puts under psr) while oversized ones must fall back to
// the header + follow-up path mid-stream with no cross-talk. The fpoff row
// is a regression config for the kill-switch token.
class LciFastpathE2E : public ::testing::TestWithParam<const char*> {};

TEST_P(LciFastpathE2E, MixedSizeTrafficAcrossReorderingFabric) {
  StackOptions options;
  options.parcelport = GetParam();
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.platform = "loopback";
  options.fabric_rails = 4;
  auto runtime = amtnet::make_runtime(options);
  e2e::counter.store(0);
  constexpr int kSmall = 200;
  // Small parcels in both directions at once...
  for (amt::Rank r = 0; r < 2; ++r) {
    runtime->locality(r).spawn([&, r] {
      for (int i = 1; i <= kSmall; ++i) {
        amt::here().apply<&e2e::bump>(1 - r, static_cast<std::uint64_t>(i));
      }
    });
  }
  // ...while zchunk-heavy round trips interleave on the fallback path.
  Latch done(1);
  bool large_ok = false;
  runtime->locality(0).spawn([&] {
    bool ok = true;
    for (std::uint64_t round = 0; round < 3; ++round) {
      auto a = e2e::make_chunk(2048, round + 1);
      auto b = e2e::make_chunk(2048, round + 2);
      auto c = e2e::make_chunk(2048, round + 3);
      auto d = e2e::make_chunk(2048, round + 4);
      const std::uint64_t expected = e2e::ordered_digest(a, b, c, d);
      ok = ok &&
           amt::here().async<&e2e::ordered_digest>(1, a, b, c, d).get() ==
               expected;
    }
    large_ok = ok;
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  EXPECT_TRUE(large_ok);
  const std::uint64_t expected_small = 2ull * kSmall * (kSmall + 1) / 2;
  ASSERT_TRUE(testutil::spin_until(
      [&] { return e2e::counter.load() == expected_small; },
      std::chrono::milliseconds(20000)));
  runtime->stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllLciVariants, LciFastpathE2E,
    ::testing::Values("lci_psr_cq_pin_fp_i", "lci_psr_cq_mt_fp_i",
                      "lci_psr_sy_pin_fp_i", "lci_psr_sy_mt_fp_i",
                      "lci_sr_cq_pin_fp_i", "lci_sr_cq_mt_fp_i",
                      "lci_sr_sy_pin_fp_i", "lci_sr_sy_mt_fp_i",
                      // regression row: the kill switch
                      "lci_sr_sy_mt_fpoff_i"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

// ---------------- adaptive aggregation, end to end ----------------

// Every LCI variant combination with aggregation on, under a block<N>
// admission window (the backpressure signal that activates coalescing),
// over a 4-rail reordering fabric. Small floods in both directions coalesce
// into batch frames while zchunk-heavy round trips ride the fallback path
// mid-stream; the exact sums catch any lost, duplicated, or misrouted
// sub-parcel. The row without an agg token pins aggregation-off to the
// bit-identical non-batching behaviour.
class LciAggregationE2E : public ::testing::TestWithParam<const char*> {};

TEST_P(LciAggregationE2E, BackpressuredMixedTrafficDeliversExactly) {
  StackOptions options;
  options.parcelport = GetParam();
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.platform = "loopback";
  options.fabric_rails = 4;
  auto runtime = amtnet::make_runtime(options);
  e2e::counter.store(0);
  constexpr int kSmall = 300;
  for (amt::Rank r = 0; r < 2; ++r) {
    runtime->locality(r).spawn([&, r] {
      for (int i = 1; i <= kSmall; ++i) {
        amt::here().apply<&e2e::bump>(1 - r, static_cast<std::uint64_t>(i));
      }
    });
  }
  Latch done(1);
  bool large_ok = false;
  runtime->locality(0).spawn([&] {
    bool ok = true;
    for (std::uint64_t round = 0; round < 2; ++round) {
      auto a = e2e::make_chunk(2048, round + 1);
      auto b = e2e::make_chunk(2048, round + 2);
      const std::uint64_t expected = e2e::ordered_digest(a, b, a, b);
      ok = ok &&
           amt::here().async<&e2e::ordered_digest>(1, a, b, a, b).get() ==
               expected;
    }
    large_ok = ok;
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  EXPECT_TRUE(large_ok);
  const std::uint64_t expected_small = 2ull * kSmall * (kSmall + 1) / 2;
  ASSERT_TRUE(testutil::spin_until(
      [&] { return e2e::counter.load() == expected_small; },
      std::chrono::milliseconds(20000)));
  runtime->stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllLciVariants, LciAggregationE2E,
    ::testing::Values("lci_psr_cq_pin_fp_agg2048_i_block16",
                      "lci_psr_cq_mt_fp_agg2048_i_block16",
                      "lci_psr_sy_pin_fp_agg2048_i_block16",
                      "lci_psr_sy_mt_fp_agg2048_i_block16",
                      "lci_sr_cq_pin_fp_agg2048_i_block16",
                      "lci_sr_cq_mt_fp_agg2048_i_block16",
                      "lci_sr_sy_pin_fp_agg2048_i_block16",
                      "lci_sr_sy_mt_fp_agg2048_i_block16",
                      // regression rows: a tight age deadline, a small cap
                      // that evicts constantly, and aggregation off
                      "lci_psr_cq_mt_fp_agg1024_aggt50_i_block8",
                      "lci_psr_cq_mt_fp_agg128_aggt100_i_block16",
                      "lci_psr_cq_mt_fp_i_block16"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

#ifndef AMTNET_TELEMETRY_DISABLED
TEST(LciAggregation, BackpressuredFloodActuallyBatches) {
  // The e2e sweep above proves delivery is exact; this pins that batching
  // *happened*: under a tight block window a one-way flood must coalesce
  // parcels into batch frames, and the flush-trigger counters must account
  // for every flush.
  StackOptions options;
  options.parcelport = "lci_psr_cq_mt_fp_agg2048_aggt100_i_block8";
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.platform = "loopback";
  auto runtime = amtnet::make_runtime(options);
  e2e::counter.store(0);
  constexpr int kParcels = 600;
  runtime->locality(0).spawn([&] {
    for (int i = 1; i <= kParcels; ++i) {
      amt::here().apply<&e2e::bump>(1, static_cast<std::uint64_t>(i));
    }
  });
  const std::uint64_t expected = 1ull * kParcels * (kParcels + 1) / 2;
  ASSERT_TRUE(testutil::spin_until(
      [&] { return e2e::counter.load() == expected; },
      std::chrono::milliseconds(20000)));
  const auto snap = runtime->telemetry().snapshot();
  const std::uint64_t batched = snap.counter("pplci/loc0/agg_batched");
  const std::uint64_t flushes = snap.counter("pplci/loc0/agg_flushes_size") +
                                snap.counter("pplci/loc0/agg_flushes_stall") +
                                snap.counter("pplci/loc0/agg_flushes_age") +
                                snap.counter("pplci/loc0/agg_flushes_idle");
  EXPECT_GT(batched, 0u) << "no parcel was ever coalesced under backpressure";
  EXPECT_GT(flushes, 0u);
  EXPECT_GE(batched, flushes) << "a flush carried zero parcels";
  runtime->stop();
}
#endif  // AMTNET_TELEMETRY_DISABLED

namespace e2e {

// Mirrors the bench harness ping signature (bench/harness.cpp lat_ping) so
// the threshold arithmetic below measures the same envelope fig7 sweeps.
void sized_sink(std::uint32_t, std::uint32_t, std::vector<std::uint8_t>) {
  counter.fetch_add(1);
}

}  // namespace e2e

#ifndef AMTNET_TELEMETRY_DISABLED
TEST(LciFastpathThreshold, Fig7StraddlePayloadsLandOnOppositeSides) {
  // fig7's straddle points assume frame = payload + 53 B (action id +
  // promise id + two u32 args + the inline-vector prefix + the 24 B frame
  // header) against the 8192 B cap: payload 8131 must ride the fast path,
  // payload 8147 must fall back. If the envelope or frame layout ever
  // changes size, this pins the drift so the bench comment gets fixed too.
  StackOptions options;
  options.parcelport = "lci_psr_cq_mt_fp_i";
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.platform = "loopback";
  auto runtime = amtnet::make_runtime(options);

  const auto counters = [&] {
    const auto snap = runtime->telemetry().snapshot();
    return std::array<std::uint64_t, 2>{
        snap.counter("pplci/loc0/fastpath_hits"),
        snap.counter("pplci/loc0/fastpath_fallbacks")};
  };

  const auto send_sized = [&](std::size_t payload_size) {
    e2e::counter.store(0);
    runtime->locality(0).spawn([&, payload_size] {
      amt::here().apply<&e2e::sized_sink>(
          1, std::uint32_t{0}, std::uint32_t{0},
          std::vector<std::uint8_t>(payload_size, 0x7f));
    });
    ASSERT_TRUE(testutil::spin_until(
        [&] { return e2e::counter.load() == 1; }));
  };

  const auto before = counters();
  send_sized(8192 - 53 - 8);  // frame at threshold - 8: fast path
  const auto under = counters();
  EXPECT_EQ(under[0], before[0] + 1) << "sub-threshold payload missed the "
                                        "fast path — envelope size drifted";
  EXPECT_EQ(under[1], before[1]);
  send_sized(8192 - 53 + 8);  // frame at threshold + 8: fallback
  const auto over = counters();
  EXPECT_EQ(over[0], under[0]);
  EXPECT_EQ(over[1], under[1] + 1) << "over-threshold payload rode the "
                                      "fast path — envelope size drifted";
  runtime->stop();
}
#endif  // AMTNET_TELEMETRY_DISABLED

TEST(LciPipeline, OutOfOrderWithJitterChaos) {
  // Rails + per-packet jitter: aggressively shuffles piece arrival order.
  StackOptions options;
  options.parcelport = "lci_psr_cq_mt_i";
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.fabric_rails = 4;
  amt::RuntimeConfig config = amtnet::make_runtime_config(options);
  config.fabric.jitter_us = 5.0;
  amt::Runtime runtime(config, amtnet::default_parcelport_factory());
  runtime.start();
  Latch done(1);
  bool all_ok = false;
  runtime.locality(0).spawn([&] {
    bool ok = true;
    for (std::uint64_t round = 0; round < 4; ++round) {
      auto a = e2e::make_chunk(3000, round + 11);
      auto b = e2e::make_chunk(1024, round + 22);
      auto c = e2e::make_chunk(4096, round + 33);
      auto d = e2e::make_chunk(2048, round + 44);
      const std::uint64_t expected = e2e::ordered_digest(a, b, c, d);
      const std::uint64_t got =
          amt::here().async<&e2e::ordered_digest>(1, a, b, c, d).get();
      ok = ok && got == expected;
    }
    all_ok = ok;
    done.count_down();
  });
  done.wait(runtime.locality(0).scheduler());
  EXPECT_TRUE(all_ok);
  runtime.stop();
}

#ifndef AMTNET_TELEMETRY_DISABLED
TEST(LciPipeline, SteadyStateSendAllocatesNoConnectionsOrSyncs) {
  // The zero-allocation acceptance check: after a warm-up burst has stocked
  // the connection/synchronizer freelists, further sends must be served
  // entirely from the pools — the alloc counters stop moving while the
  // reuse counters keep climbing. fpoff: with the small-parcel fast path on
  // (the default) these pings would bypass connections entirely, which the
  // sibling test below pins down.
  StackOptions options;
  options.parcelport = "lci_psr_sy_mt_fpoff_i";  // sy: exercises the sync pool
  options.num_localities = 2;
  options.threads_per_locality = 2;
  auto runtime = amtnet::make_runtime(options);

  const auto pools = [&] {
    const auto snap = runtime->telemetry().snapshot();
    const auto both = [&snap](const char* leaf) {
      return snap.counter(std::string("pplci/loc0/") + leaf) +
             snap.counter(std::string("pplci/loc1/") + leaf);
    };
    return std::array<std::uint64_t, 4>{
        both("conn_allocs"), both("conn_reuses"), both("sync_allocs"),
        both("sync_reuses")};
  };

  // Warm-up: a concurrent burst in both directions grows the pools past any
  // steady-state in-flight count.
  e2e::counter.store(0);
  constexpr int kBurst = 48;
  for (amt::Rank r = 0; r < 2; ++r) {
    runtime->locality(r).spawn([&] {
      for (int i = 0; i < kBurst; ++i) {
        amt::here().apply<&e2e::bump>(1 - amt::here().rank(), 1);
      }
    });
  }
  ASSERT_TRUE(testutil::spin_until(
      [&] { return e2e::counter.load() == 2 * kBurst; },
      std::chrono::milliseconds(10000)));

  const auto warm = pools();

  // Steady state: sequential request/response round trips.
  Latch done(1);
  bool all_ok = false;
  runtime->locality(0).spawn([&] {
    bool ok = true;
    for (std::uint64_t i = 0; i < 128; ++i) {
      ok = ok && amt::here().async<&e2e::echo_add>(1, i).get() == i + 1;
    }
    all_ok = ok;
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  ASSERT_TRUE(all_ok);

  const auto after = pools();
  EXPECT_EQ(after[0], warm[0]) << "steady-state sends allocated connections";
  EXPECT_GT(after[1], warm[1]) << "connections were not recycled";
  EXPECT_EQ(after[2], warm[2]) << "steady-state sends allocated synchronizers";
  EXPECT_GT(after[3], warm[3]) << "synchronizers were not recycled";
  runtime->stop();
}

TEST(LciPipeline, FastpathSendsBypassConnectionsAndSyncs) {
  // With the fast path on (the default), small round trips never acquire a
  // ReceiverConnection or a synchronizer at all: every pool counter stays
  // frozen while the fastpath hit counter accounts for each parcel.
  StackOptions options;
  options.parcelport = "lci_psr_sy_mt_fp_i";
  options.num_localities = 2;
  options.threads_per_locality = 2;
  auto runtime = amtnet::make_runtime(options);

  const auto counters = [&] {
    const auto snap = runtime->telemetry().snapshot();
    const auto both = [&snap](const char* leaf) {
      return snap.counter(std::string("pplci/loc0/") + leaf) +
             snap.counter(std::string("pplci/loc1/") + leaf);
    };
    return std::array<std::uint64_t, 6>{
        both("conn_allocs"),     both("conn_reuses"),
        both("sync_allocs"),     both("sync_reuses"),
        both("fastpath_hits"),   both("fastpath_fallbacks")};
  };

  // One round trip first so startup traffic is out of the way.
  Latch warmed(1);
  runtime->locality(0).spawn([&] {
    (void)amt::here().async<&e2e::echo_add>(1, std::uint64_t{0}).get();
    warmed.count_down();
  });
  warmed.wait(runtime->locality(0).scheduler());
  const auto warm = counters();

  constexpr std::uint64_t kRounds = 128;
  Latch done(1);
  bool all_ok = false;
  runtime->locality(0).spawn([&] {
    bool ok = true;
    for (std::uint64_t i = 0; i < kRounds; ++i) {
      ok = ok && amt::here().async<&e2e::echo_add>(1, i).get() == i + 1;
    }
    all_ok = ok;
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  ASSERT_TRUE(all_ok);

  const auto after = counters();
  EXPECT_EQ(after[0], warm[0]) << "fast-path sends acquired connections";
  EXPECT_EQ(after[1], warm[1]) << "fast-path sends reused connections";
  EXPECT_EQ(after[2], warm[2]) << "fast-path sends allocated synchronizers";
  EXPECT_EQ(after[3], warm[3]) << "fast-path sends reused synchronizers";
  // Request + response per round, both small enough for the fast path.
  EXPECT_GE(after[4] - warm[4], 2 * kRounds) << "parcels missed the fast path";
  EXPECT_EQ(after[5], warm[5]) << "small parcels fell back off the fast path";
  runtime->stop();
}
#endif  // AMTNET_TELEMETRY_DISABLED

// ---------------- cross-locality scaling sanity ----------------

TEST(ParcelportScaling, FourLocalitiesAllToAll) {
  for (const char* name : {"mpi_i", "lci_psr_cq_pin_i"}) {
    StackOptions options;
    options.parcelport = name;
    options.num_localities = 4;
    options.threads_per_locality = 1;
    auto runtime = amtnet::make_runtime(options);
    e2e::counter.store(0);
    for (amt::Rank r = 0; r < 4; ++r) {
      runtime->locality(r).spawn([&] {
        for (amt::Rank dst = 0; dst < 4; ++dst) {
          amt::here().apply<&e2e::bump>(dst, 1);
        }
      });
    }
    ASSERT_TRUE(testutil::spin_until(
        [&] { return e2e::counter.load() == 16; },
        std::chrono::milliseconds(10000)))
        << name << " delivered " << e2e::counter.load() << "/16";
    runtime->stop();
  }
}

// ---------------- header integrity: CRC + generation tracking ----------

TEST(WireHeaderDeathTest, CorruptedHeaderFailsFastAtDecode) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto msg = make_msg(64, {9000});
  const auto plan = amt::HeaderPlan::decide(msg, 8192);
  std::vector<std::byte> wire;
  amt::encode_header(msg, plan, 77, /*seq=*/3, wire);
  // Flip one payload bit: the decode-time CRC must catch it and abort
  // rather than deserialize garbage sizes.
  wire[wire.size() / 2] ^= std::byte{0x10};
  EXPECT_DEATH(amt::decode_header(wire.data(), wire.size()),
               "wire header CRC mismatch");
}

TEST(WireHeaderDeathTest, TruncatedHeaderFailsFast) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<std::byte> wire(8, std::byte{0});
  EXPECT_DEATH(amt::decode_header(wire.data(), wire.size()),
               "wire header truncated");
}

TEST(HeaderSeqTracker, AcceptsMonotonicRejectsDuplicates) {
  amt::HeaderSeqTracker tracker;
  for (std::uint16_t seq = 0; seq < 200; ++seq) {
    EXPECT_TRUE(tracker.accept(seq)) << "fresh seq " << seq;
  }
  EXPECT_FALSE(tracker.accept(199));
  EXPECT_FALSE(tracker.accept(180));
  EXPECT_TRUE(tracker.accept(200));
}

TEST(HeaderSeqTracker, ToleratesReorderingWithinWindow) {
  amt::HeaderSeqTracker tracker;
  // Multi-rail style arrival order: newest first, stragglers after.
  EXPECT_TRUE(tracker.accept(10));
  EXPECT_TRUE(tracker.accept(8));
  EXPECT_TRUE(tracker.accept(9));
  EXPECT_FALSE(tracker.accept(8));  // straggler arriving twice = duplicate
  EXPECT_TRUE(tracker.accept(11));
  EXPECT_FALSE(tracker.accept(10));
}

TEST(HeaderSeqTracker, LongFloodRejectsStaleDuplicateAtTheOldU16Wrap) {
  // Regression for the 16-bit tracker: after 2^16 generations, a stale
  // duplicate of an early seq aliased onto a small *forward* delta
  // ((2 - 0xFFFE) mod 2^16 = 4) and was accepted — a double dispatch on any
  // flood longer than 65536 parcels. The 32-bit tracker must classify it as
  // epoch-stale and reject, while the flood itself keeps flowing.
  amt::HeaderSeqTracker tracker;
  for (std::uint32_t seq = 0; seq <= 0xFFFEu; ++seq) {
    ASSERT_TRUE(tracker.accept(seq)) << "generation " << seq;
  }
  EXPECT_FALSE(tracker.accept(2));        // pre-fix: seen as 4 ahead, accepted
  EXPECT_FALSE(tracker.accept(0xFFFEu));  // plain in-window duplicate
  EXPECT_TRUE(tracker.accept(0xFFFFu));   // the counter no longer wraps here
  EXPECT_TRUE(tracker.accept(0x10000u));
  EXPECT_TRUE(tracker.accept(0x10001u));
}

TEST(HeaderSeqTracker, SurvivesTheFullU32Wraparound) {
  amt::HeaderSeqTracker tracker;
  // Walk highest_ to just below the 32-bit wrap (each jump lands inside the
  // forward half-range, so all three are "newer")...
  ASSERT_TRUE(tracker.accept(0x60000000u));
  ASSERT_TRUE(tracker.accept(0xC0000000u));
  ASSERT_TRUE(tracker.accept(0xFFFFFF00u));
  // ...then cross the wrap one generation at a time.
  for (std::uint32_t seq = 0xFFFFFF01u; seq != 8; ++seq) {
    ASSERT_TRUE(tracker.accept(seq)) << "generation " << seq;
  }
  EXPECT_FALSE(tracker.accept(0xFFFFFFFFu));  // duplicate from before the wrap
  EXPECT_FALSE(tracker.accept(4));            // duplicate from after it
  EXPECT_TRUE(tracker.accept(8));
}

// ---------------- LCI follow-up tag counter wraparound ----------------

#include "parcelport_lci/parcelport_lci.hpp"

TEST(LciTagWraparound, FollowupsSurviveThe32BitTagWrap) {
  // Position both tag counters just below 2^32 so follow-up tag ranges are
  // allocated across the wrap mid-test. A range that started at the reserved
  // header tag 0 — or wrapped through it — would collide follow-up pieces
  // with sr/psr headers; the receiver-side tag routing must also stay
  // consistent across the restart.
  StackOptions options;
  options.parcelport = "lci_psr_cq_mt_i";
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.platform = "loopback";
  options.zero_copy_threshold = 1024;  // 4 KiB vectors become zchunks
  auto runtime = amtnet::make_runtime(options);
  for (amt::Rank r = 0; r < 2; ++r) {
    auto* port = dynamic_cast<pplci::LciParcelport*>(
        runtime->locality(r).parcelport());
    ASSERT_NE(port, nullptr);
    port->set_next_tag((1ull << 32) - 25);
  }
  Latch done(1);
  bool all_ok = false;
  runtime->locality(0).spawn([&] {
    bool ok = true;
    // 2 zchunk tags per round trip: 30 rounds sweep the counter from
    // 2^32-25 through the wrap and out the other side.
    for (int round = 0; round < 30; ++round) {
      std::vector<double> a(512, double(round)), b(512, 2.0);
      const double got = amt::here().async<&e2e::dot>(1, a, b).get();
      ok = ok && got == 512.0 * 2.0 * round;
    }
    all_ok = ok;
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  EXPECT_TRUE(all_ok) << "a parcel was lost or corrupted across the tag wrap";
  runtime->stop();
}

// ---------------- stack construction footprint ----------------

TEST(StackFootprint, BuildStartStopFaultsUnder16MiB) {
  // The SRQ is credits only and the packet pools leave their arenas
  // untouched, so the pages a stack build faults in must not grow with SRQ
  // depth x buffer size or pool size x packet size. A default stack and one
  // with half the SRQ depth and pool size must therefore fault nearly the
  // same pages; filled, they would differ by ~24 k pages (half of 2 NICs x
  // 64 MiB plus 2 devices x 32 MiB). Only that difference is held to the
  // budget, so a sanitizer's fixed per-build pages cancel out. ASan's
  // shadow writes for an untouched arena still scale with its size (about
  // a quarter of it: ~2 k pages for the halved pools), which is why the
  // sizes differ by 2x, not more.
  const auto minor_faults = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
  };
  const auto build_start_stop_faults = [&](std::size_t depth) {
    // Pool size is read from the environment when the parcelport is built.
    setenv("AMTNET_LCI_PACKET_POOL", std::to_string(depth).c_str(), 1);
    amt::RuntimeConfig config = amtnet::make_runtime_config(StackOptions{});
    config.fabric.srq_depth = depth;  // sim, lci_psr_cq_pin_i, two localities
    const long before = minor_faults();
    {
      amt::Runtime runtime(config, amtnet::default_parcelport_factory());
      runtime.start();
      runtime.stop();
    }
    return minor_faults() - before;
  };
  constexpr std::size_t kDefaultDepth = 4096;  // fabric and minilci defaults
  constexpr std::size_t kSmallDepth = kDefaultDepth / 2;
  // Warm-up: the first build in the process also faults in one-time state
  // (registries, thread stacks) that the compared builds must not differ by.
  build_start_stop_faults(kSmallDepth);
  const long small = build_start_stop_faults(kSmallDepth);
  const long full = build_start_stop_faults(kDefaultDepth);
  unsetenv("AMTNET_LCI_PACKET_POOL");
  const long budget_pages = (16L << 20) / sysconf(_SC_PAGESIZE);
  EXPECT_LT(full - small, budget_pages)
      << "a default stack build faulted " << full << " pages against "
      << small << " for a half-depth one";
}
