#include "apps/fft.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/bound_channel.hpp"

namespace fppn::apps {
namespace {


bool is_power_of_two(int n) { return n >= 2 && (n & (n - 1)) == 0; }

int log2_int(int n) {
  int s = 0;
  while ((1 << s) < n) {
    ++s;
  }
  return s;
}

int bit_reverse(int value, int bits) {
  int out = 0;
  for (int b = 0; b < bits; ++b) {
    out = (out << 1) | ((value >> b) & 1);
  }
  return out;
}

std::string line_name(int stage_boundary, int line) {
  return "L" + std::to_string(stage_boundary) + "_" + std::to_string(line);
}

std::complex<double> as_complex(const Value& v) {
  if (const auto* vec = std::get_if<std::vector<double>>(&v);
      vec != nullptr && vec->size() == 2) {
    return {(*vec)[0], (*vec)[1]};
  }
  return {0.0, 0.0};
}

Value to_value(const std::complex<double>& z) {
  return std::vector<double>{z.real(), z.imag()};
}

/// Generator: bit-reverse the k-th input block onto the stage-0 lines.
class GeneratorBehavior final : public ProcessBehavior {
 public:
  GeneratorBehavior(int points, int stages) : points_(points), stages_(stages) {
    lines_.reserve(static_cast<std::size_t>(points));
    for (int line = 0; line < points; ++line) {
      lines_.emplace_back(line_name(0, line));
    }
  }

  void on_job(JobContext& ctx) override {
    const Value in = in_.read(ctx);
    std::vector<double> block(static_cast<std::size_t>(points_), 0.0);
    if (const auto* vec = std::get_if<std::vector<double>>(&in)) {
      for (std::size_t i = 0; i < block.size() && i < vec->size(); ++i) {
        block[i] = (*vec)[i];
      }
    }
    for (int line = 0; line < points_; ++line) {
      const int src = bit_reverse(line, stages_);
      lines_[static_cast<std::size_t>(line)].write(
          ctx, to_value({block[static_cast<std::size_t>(src)], 0.0}));
    }
  }

 private:
  int points_;
  int stages_;
  BoundChannel in_{"FFTIn"};
  std::vector<BoundChannel> lines_;  ///< stage-0 line i
};

/// FFT2_<s>_<i>: one radix-2 decimation-in-time butterfly.
class ButterflyBehavior final : public ProcessBehavior {
 public:
  ButterflyBehavior(int stage, int line_a, int line_b, std::complex<double> twiddle)
      : in_a_(line_name(stage, line_a)),
        in_b_(line_name(stage, line_b)),
        out_a_(line_name(stage + 1, line_a)),
        out_b_(line_name(stage + 1, line_b)),
        twiddle_(twiddle) {}

  void on_job(JobContext& ctx) override {
    const std::complex<double> a = as_complex(in_a_.read(ctx));
    const std::complex<double> b = as_complex(in_b_.read(ctx));
    const std::complex<double> t = twiddle_ * b;
    out_a_.write(ctx, to_value(a + t));
    out_b_.write(ctx, to_value(a - t));
  }

 private:
  BoundChannel in_a_;
  BoundChannel in_b_;
  BoundChannel out_a_;
  BoundChannel out_b_;
  std::complex<double> twiddle_;
};

/// Consumer: gather the naturally-ordered spectrum, emit interleaved re/im.
class ConsumerBehavior final : public ProcessBehavior {
 public:
  ConsumerBehavior(int points, int stages) {
    lines_.reserve(static_cast<std::size_t>(points));
    for (int line = 0; line < points; ++line) {
      lines_.emplace_back(line_name(stages, line));
    }
  }

  void on_job(JobContext& ctx) override {
    std::vector<double> out;
    out.reserve(lines_.size() * 2);
    for (BoundChannel& line : lines_) {
      const std::complex<double> z = as_complex(line.read(ctx));
      out.push_back(z.real());
      out.push_back(z.imag());
    }
    out_.write(ctx, out);
  }

 private:
  std::vector<BoundChannel> lines_;  ///< last-stage line i
  BoundChannel out_{"FFTOut"};
};

}  // namespace

FftApp build_fft(int points, Duration period, Duration deadline) {
  if (!is_power_of_two(points)) {
    throw std::invalid_argument("fft: points must be a power of two >= 2");
  }
  FftApp app;
  app.points = points;
  app.stages = log2_int(points);

  NetworkBuilder b;
  app.generator = b.periodic("generator", period, deadline,
                             [points, stages = app.stages] {
                               return std::make_unique<GeneratorBehavior>(points,
                                                                          stages);
                             });

  // Butterfly processes FFT2_<stage>_<i>.
  app.butterflies.assign(static_cast<std::size_t>(app.stages), {});
  for (int s = 0; s < app.stages; ++s) {
    for (int i = 0; i < points / 2; ++i) {
      const int span = 1 << s;
      const int block = i / span;
      const int j = i % span;
      const int line_a = block * (span * 2) + j;
      const int line_b = line_a + span;
      const double angle =
          -2.0 * kPi * static_cast<double>(j) /
          static_cast<double>(span * 2);
      const std::complex<double> twiddle(std::cos(angle), std::sin(angle));
      const std::string name = "FFT2_" + std::to_string(s) + "_" + std::to_string(i);
      app.butterflies[static_cast<std::size_t>(s)].push_back(
          b.periodic(name, period, deadline, [s, line_a, line_b, twiddle] {
            return std::make_unique<ButterflyBehavior>(s, line_a, line_b, twiddle);
          }));
    }
  }

  app.consumer = b.periodic("consumer", period, deadline,
                            [points, stages = app.stages] {
                              return std::make_unique<ConsumerBehavior>(points,
                                                                        stages);
                            });

  // Line channels: owner of line `l` at stage `s` is the butterfly whose
  // pair contains l (clear bit s).
  const auto owner = [&app](int s, int line) {
    const int span = 1 << s;
    const int a = line & ~span;
    const int block = a / (span * 2);
    const int j = a % span;
    return app.butterflies[static_cast<std::size_t>(s)]
                          [static_cast<std::size_t>(block * span + j)];
  };
  for (int line = 0; line < points; ++line) {
    b.fifo(line_name(0, line), app.generator, owner(0, line));
  }
  for (int s = 1; s < app.stages; ++s) {
    for (int line = 0; line < points; ++line) {
      b.fifo(line_name(s, line), owner(s - 1, line), owner(s, line));
    }
  }
  for (int line = 0; line < points; ++line) {
    b.fifo(line_name(app.stages, line), owner(app.stages - 1, line), app.consumer);
  }

  app.input = b.external_input("FFTIn", app.generator);
  app.output = b.external_output("FFTOut", app.consumer);

  // Functional priority along the data flow of every FIFO (the paper:
  // the FP relation coincides with the flow direction).
  b.auto_rate_monotonic_priorities();  // same periods: declaration order
  app.net = std::move(b).build();
  return app;
}

WcetMap FftApp::uniform_wcets(Duration wcet) const {
  WcetMap map;
  for (std::size_t i = 0; i < net.process_count(); ++i) {
    map.emplace(ProcessId{i}, wcet);
  }
  return map;
}

InputScripts FftApp::make_inputs(const std::vector<std::vector<double>>& frames) const {
  InputScripts scripts;
  std::vector<Value> samples;
  samples.reserve(frames.size());
  for (const auto& f : frames) {
    samples.emplace_back(f);
  }
  scripts.emplace(input, std::move(samples));
  return scripts;
}

std::vector<std::complex<double>> reference_dft(const std::vector<double>& block) {
  const std::size_t n = block.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc(0.0, 0.0);
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * kPi * static_cast<double>(k * t) /
                           static_cast<double>(n);
      acc += block[t] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

}  // namespace fppn::apps
