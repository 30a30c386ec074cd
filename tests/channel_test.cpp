#include "fppn/channel.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "fppn/exec_state.hpp"

namespace fppn {
namespace {

TEST(FifoChannel, QueueSemantics) {
  ChannelRuntime c(ChannelKind::kFifo);
  c.write(Value{std::int64_t{1}});
  c.write(Value{std::int64_t{2}});
  EXPECT_EQ(c.buffered(), 2u);
  EXPECT_EQ(c.read(), Value{std::int64_t{1}});
  EXPECT_EQ(c.read(), Value{std::int64_t{2}});
  EXPECT_EQ(c.buffered(), 0u);
}

TEST(FifoChannel, EmptyReadIsNonBlockingNoData) {
  // §II-A: reading from an empty FIFO returns the non-availability value.
  ChannelRuntime c(ChannelKind::kFifo);
  EXPECT_FALSE(has_data(c.read()));
}

TEST(FifoChannel, ReadConsumes) {
  ChannelRuntime c(ChannelKind::kFifo);
  c.write(Value{1.0});
  EXPECT_TRUE(has_data(c.read()));
  EXPECT_FALSE(has_data(c.read()));
}

TEST(BlackboardChannel, RemembersLastValue) {
  ChannelRuntime c(ChannelKind::kBlackboard);
  c.write(Value{1.0});
  c.write(Value{2.0});
  EXPECT_EQ(c.read(), Value{2.0});
  // Readable multiple times.
  EXPECT_EQ(c.read(), Value{2.0});
  EXPECT_EQ(c.buffered(), 1u);
}

TEST(BlackboardChannel, UninitializedReadIsNoData) {
  ChannelRuntime c(ChannelKind::kBlackboard);
  EXPECT_FALSE(has_data(c.read()));
}

TEST(ChannelRuntime, PeekDoesNotConsume) {
  ChannelRuntime f(ChannelKind::kFifo);
  f.write(Value{std::int64_t{9}});
  EXPECT_EQ(f.peek(), Value{std::int64_t{9}});
  EXPECT_EQ(f.buffered(), 1u);
  ChannelRuntime b(ChannelKind::kBlackboard);
  EXPECT_FALSE(has_data(b.peek()));
}

TEST(ChannelRuntime, HistoryRecordsEveryWrite) {
  ChannelRuntime c(ChannelKind::kBlackboard);
  c.write(Value{1.0});
  c.write(Value{2.0});
  (void)c.read();
  ASSERT_EQ(c.history().size(), 2u);  // reads never appear in the history
  EXPECT_EQ(c.history()[0], Value{1.0});
  EXPECT_EQ(c.history()[1], Value{2.0});
}

/// The channel as a queue, a last-value slot and a separate history: the
/// reference ChannelRuntime's single history vector must agree with.
class ReferenceChannel {
 public:
  explicit ReferenceChannel(ChannelKind kind) : kind_(kind) {}

  Value read() {
    if (kind_ == ChannelKind::kFifo) {
      if (fifo_.empty()) {
        return no_data();
      }
      Value v = fifo_.front();
      fifo_.pop_front();
      return v;
    }
    return peek();
  }

  void write(const Value& v) {
    history_.push_back(v);
    if (kind_ == ChannelKind::kFifo) {
      fifo_.push_back(v);
    } else {
      board_ = v;
    }
  }

  [[nodiscard]] Value peek() const {
    if (kind_ == ChannelKind::kFifo) {
      return fifo_.empty() ? no_data() : fifo_.front();
    }
    return board_.value_or(no_data());
  }

  [[nodiscard]] std::size_t buffered() const {
    return kind_ == ChannelKind::kFifo ? fifo_.size() : (board_.has_value() ? 1 : 0);
  }

  [[nodiscard]] const std::vector<Value>& history() const { return history_; }

 private:
  ChannelKind kind_;
  std::deque<Value> fifo_;
  std::optional<Value> board_;
  std::vector<Value> history_;
};

/// One of the Value alternatives, drawn from `rng`.
Value random_value(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      return Value{static_cast<std::int64_t>(rng() % 1000)};
    case 1:
      return Value{static_cast<double>(rng() % 1000) / 8.0};
    case 2:
      return Value{std::string(1 + rng() % 20, static_cast<char>('a' + rng() % 26))};
    default:
      return Value{std::vector<double>(rng() % 5, static_cast<double>(rng() % 9))};
  }
}

TEST(ChannelRuntime, MatchesQueueAndSlotReferenceOnRandomSequences) {
  for (const ChannelKind kind : {ChannelKind::kFifo, ChannelKind::kBlackboard}) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      SCOPED_TRACE(to_string(kind) + " seed " + std::to_string(seed));
      std::mt19937_64 rng(seed);
      ChannelRuntime got(kind);
      ReferenceChannel want(kind);
      // Writes outnumber reads on even seeds, so the queue grows; odd
      // seeds read more than they write, so it keeps running dry.
      const std::uint64_t write_share = seed % 2 == 0 ? 6 : 3;
      const std::size_t steps = 1 + rng() % 300;
      for (std::size_t step = 0; step < steps; ++step) {
        const std::uint64_t op = rng() % 12;
        if (op < write_share) {
          const Value v = random_value(rng);
          got.write(v);
          want.write(v);
        } else if (op < 10) {
          ASSERT_EQ(got.read(), want.read()) << "step " << step;
        } else {
          ASSERT_EQ(got.peek(), want.peek()) << "step " << step;
        }
        ASSERT_EQ(got.buffered(), want.buffered()) << "step " << step;
        ASSERT_EQ(got.history(), want.history()) << "step " << step;
      }
      const std::vector<Value> moved = std::move(got).history();
      EXPECT_EQ(moved, want.history());
    }
  }
}

TEST(ChannelRuntime, MovedOutHistoryLeavesAnEmptyChannel) {
  ChannelRuntime c(ChannelKind::kFifo);
  c.write(Value{1.0});
  c.write(Value{2.0});
  EXPECT_EQ(c.read(), Value{1.0});
  const std::vector<Value> moved = std::move(c).history();
  EXPECT_EQ(moved, (std::vector<Value>{Value{1.0}, Value{2.0}}));
  EXPECT_EQ(c.buffered(), 0u);
  EXPECT_FALSE(has_data(c.read()));
}

TEST(ChannelRuntime, BufferedFifoOverflowStillThrows) {
  // The one-history FIFO keeps read values in its history; only the
  // unread suffix counts against a buffered channel's capacity.
  NetworkBuilder b;
  const ProcessId w = b.periodic("w", Duration::ms(100), Duration::ms(100),
                                 behavior([](JobContext& ctx) {
                                   ctx.write("q", Value{1.0});
                                   ctx.write("q", Value{2.0});
                                 }));
  const ProcessId r = b.periodic("r", Duration::ms(100), Duration::ms(100),
                                 behavior([](JobContext& ctx) {
                                   (void)ctx.read("q");
                                 }));
  b.buffered_fifo("q", w, r, 3);
  b.priority(w, r);
  const Network net = std::move(b).build();
  const InputScripts no_inputs;
  ExecutionState state(net, no_inputs);
  state.run_job(w, Time::ms(0));  // 2 buffered
  state.run_job(r, Time::ms(0));  // 1 buffered, 2 in the history
  state.run_job(w, Time::ms(100));  // 3 buffered: at capacity, no throw
  EXPECT_EQ(state.histories().channel_writes.at(ChannelId{0}).size(), 4u);
  EXPECT_THROW(state.run_job(w, Time::ms(200)), std::logic_error);  // 4 > 3
}

TEST(ChannelKind, ToString) {
  EXPECT_EQ(to_string(ChannelKind::kFifo), "fifo");
  EXPECT_EQ(to_string(ChannelKind::kBlackboard), "blackboard");
}

}  // namespace
}  // namespace fppn
