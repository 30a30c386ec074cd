#include "apps/fig1.hpp"

#include <cmath>

#include "apps/bound_channel.hpp"

namespace fppn::apps {
namespace {

double as_double(const Value& v, double fallback) {
  if (const auto* d = std::get_if<double>(&v)) {
    return *d;
  }
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return static_cast<double>(*i);
  }
  return fallback;
}

/// InputA: forward the k-th external sample to both filter paths.
class InputABehavior final : public ProcessBehavior {
 public:
  void on_job(JobContext& ctx) override {
    const Value x = in_.read(ctx);
    const double sample = as_double(x, 0.0);
    to_fa_.write(ctx, sample);
    to_fb_.write(ctx, sample);
  }

 private:
  BoundChannel in_{"InA"};
  BoundChannel to_fa_{"inA_fA"};
  BoundChannel to_fb_{"inA_fB"};
};

/// FilterA: leaky integrator over the (every other invocation) input,
/// scaled by the feedback gain computed by NormA.
class FilterABehavior final : public ProcessBehavior {
 public:
  void on_job(JobContext& ctx) override {
    const Value x = in_.read(ctx);
    if (has_data(x)) {
      acc_ = 0.5 * acc_ + as_double(x, 0.0);
    } else {
      acc_ = 0.5 * acc_;  // decay between input samples
    }
    const double gain = as_double(feedback_.read(ctx), 1.0);
    const double out = acc_ * gain;
    to_norm_.write(ctx, out);
    to_mix_.write(ctx, out);
  }

 private:
  double acc_ = 0.0;
  BoundChannel in_{"inA_fA"};
  BoundChannel feedback_{"fbA"};
  BoundChannel to_norm_{"fA_nA"};
  BoundChannel to_mix_{"mixA"};
};

/// NormA: soft normalizer; also produces FilterA's feedback gain.
class NormABehavior final : public ProcessBehavior {
 public:
  void on_job(JobContext& ctx) override {
    const double v = as_double(in_.read(ctx), 0.0);
    const double norm = v / (1.0 + std::abs(v));
    to_out_.write(ctx, norm);
    feedback_.write(ctx, 1.0 / (1.0 + std::abs(v)));
  }

 private:
  BoundChannel in_{"fA_nA"};
  BoundChannel to_out_{"nA_outA"};
  BoundChannel feedback_{"fbA"};
};

class OutputABehavior final : public ProcessBehavior {
 public:
  void on_job(JobContext& ctx) override {
    const Value v = in_.read(ctx);
    out_.write(ctx, has_data(v) ? v : Value{0.0});
  }

 private:
  BoundChannel in_{"nA_outA"};
  BoundChannel out_{"Out1"};
};

/// CoefB: store the sporadically commanded coefficient on the blackboard.
class CoefBBehavior final : public ProcessBehavior {
 public:
  void on_job(JobContext& ctx) override {
    const Value c = in_.read(ctx);
    if (has_data(c)) {
      board_.write(ctx, as_double(c, 1.0));
    }
  }

 private:
  BoundChannel in_{"CoefIn"};
  BoundChannel board_{"coefB"};
};

/// FilterB: gain filter with the last commanded coefficient.
class FilterBBehavior final : public ProcessBehavior {
 public:
  void on_job(JobContext& ctx) override {
    const double x = as_double(in_.read(ctx), 0.0);
    const double c = as_double(coef_.read(ctx), 1.0);
    out_.write(ctx, c * x);
  }

 private:
  BoundChannel in_{"inA_fB"};
  BoundChannel coef_{"coefB"};
  BoundChannel out_{"fB_outB"};
};

/// OutputB: mix the FilterB output (when present) with the FilterA path.
class OutputBBehavior final : public ProcessBehavior {
 public:
  void on_job(JobContext& ctx) override {
    const Value y = filtered_.read(ctx);
    const Value m = mix_.read(ctx);
    const double out = as_double(y, 0.0) + 0.25 * as_double(m, 0.0);
    out_.write(ctx, out);
  }

 private:
  BoundChannel filtered_{"fB_outB"};
  BoundChannel mix_{"mixA"};
  BoundChannel out_{"Out2"};
};

template <class B>
BehaviorFactory make() {
  return [] { return std::make_unique<B>(); };
}

}  // namespace

Fig1App build_fig1() {
  Fig1App app;
  NetworkBuilder b;
  const auto ms = [](std::int64_t v) { return Duration::ms(v); };

  app.input_a = b.periodic("InputA", ms(200), ms(200), make<InputABehavior>());
  app.filter_a = b.periodic("FilterA", ms(100), ms(100), make<FilterABehavior>());
  app.filter_b = b.periodic("FilterB", ms(200), ms(200), make<FilterBBehavior>());
  app.norm_a = b.periodic("NormA", ms(200), ms(200), make<NormABehavior>());
  app.output_a = b.periodic("OutputA", ms(200), ms(200), make<OutputABehavior>());
  app.output_b = b.periodic("OutputB", ms(100), ms(100), make<OutputBBehavior>());
  app.coef_b = b.sporadic("CoefB", 2, ms(700), ms(700), make<CoefBBehavior>());

  b.fifo("inA_fA", app.input_a, app.filter_a);
  b.fifo("inA_fB", app.input_a, app.filter_b);
  b.blackboard("fA_nA", app.filter_a, app.norm_a);
  b.blackboard("mixA", app.filter_a, app.output_b);
  b.blackboard("fbA", app.norm_a, app.filter_a);  // the feedback loop
  b.fifo("nA_outA", app.norm_a, app.output_a);
  b.blackboard("coefB", app.coef_b, app.filter_b);
  b.fifo("fB_outB", app.filter_b, app.output_b);

  app.in_a = b.external_input("InA", app.input_a);
  app.coef_in = b.external_input("CoefIn", app.coef_b);
  app.out1 = b.external_output("Out1", app.output_a);
  app.out2 = b.external_output("Out2", app.output_b);

  // Functional priorities as drawn in Fig. 1 (writer over reader, except
  // the feedback channel, which is covered by FilterA -> NormA).
  b.priority(app.input_a, app.filter_a);
  b.priority(app.input_a, app.filter_b);
  b.priority(app.input_a, app.norm_a);
  b.priority(app.filter_a, app.norm_a);
  b.priority(app.filter_a, app.output_b);
  b.priority(app.norm_a, app.output_a);
  b.priority(app.filter_b, app.output_b);
  b.priority(app.coef_b, app.filter_b);

  app.net = std::move(b).build();
  return app;
}

WcetMap Fig1App::fig3_wcets() const {
  WcetMap map;
  for (std::size_t i = 0; i < net.process_count(); ++i) {
    map.emplace(ProcessId{i}, Duration::ms(25));
  }
  return map;
}

InputScripts Fig1App::make_inputs(const std::vector<double>& samples,
                                  const std::vector<double>& coefs) const {
  InputScripts scripts;
  std::vector<Value> s(samples.begin(), samples.end());
  std::vector<Value> c(coefs.begin(), coefs.end());
  scripts.emplace(in_a, std::move(s));
  scripts.emplace(coef_in, std::move(c));
  return scripts;
}

}  // namespace fppn::apps
