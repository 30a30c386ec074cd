#include "apps/fms.hpp"

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

std::vector<double> as_block(const Value& v, std::size_t size) {
  std::vector<double> out(size, 0.0);
  if (const auto* vec = std::get_if<std::vector<double>>(&v)) {
    for (std::size_t i = 0; i < size && i < vec->size(); ++i) {
      out[i] = (*vec)[i];
    }
  }
  return out;
}

/// SensorInput: publish the k-th sensor block (anemo, gps, irs, doppler)
/// to both BCP computations.
class SensorInputBehavior final : public ProcessBehavior {
 public:
  void on_job(JobContext& ctx) override {
    const Value in = sensors_.read(ctx);
    const std::vector<double> block = as_block(in, 4);
    high_freq_.write(ctx, block);
    low_freq_.write(ctx, block);
  }

 private:
  BoundChannel sensors_{"Sensors"};
  BoundChannel high_freq_{"SensorData"};
  BoundChannel low_freq_{"SensorDataLF"};
};

/// A config process: latch the k-th commanded value onto its blackboard.
class ConfigBehavior final : public ProcessBehavior {
 public:
  ConfigBehavior(std::string input, std::string board)
      : input_(std::move(input)), board_(std::move(board)) {}

  void on_job(JobContext& ctx) override {
    const Value cmd = input_.read(ctx);
    if (has_data(cmd)) {
      board_.write(ctx, as_double(cmd, 1.0));
    }
  }

 private:
  BoundChannel input_;
  BoundChannel board_;
};

/// HighFreqBCP: weighted fusion of the four sensor readings with the
/// per-sensor confidence weights commanded by the config processes, the
/// global BCP gain, and the declination correction.
class HighFreqBcpBehavior final : public ProcessBehavior {
 public:
  void on_job(JobContext& ctx) override {
    const std::vector<double> s = as_block(sensors_.read(ctx), 4);
    const double w_anemo = as_double(anemo_.read(ctx), 1.0);
    const double w_gps = as_double(gps_.read(ctx), 1.0);
    const double w_irs = as_double(irs_.read(ctx), 1.0);
    const double w_doppler = as_double(doppler_.read(ctx), 1.0);
    const double gain = as_double(gain_.read(ctx), 1.0);
    const double declination = as_double(declination_.read(ctx), 0.0);
    const double wsum = w_anemo + w_gps + w_irs + w_doppler;
    const double fused =
        wsum > 0.0
            ? (w_anemo * s[0] + w_gps * s[1] + w_irs * s[2] + w_doppler * s[3]) / wsum
            : 0.0;
    // First-order smoothing: the "best computed position".
    bcp_ = 0.75 * bcp_ + 0.25 * gain * (fused + declination);
    to_low_freq_.write(ctx, bcp_);
    to_performance_.write(ctx, bcp_);
    to_declin_.write(ctx, bcp_);
    out_.write(ctx, bcp_);
  }

 private:
  double bcp_ = 0.0;
  BoundChannel sensors_{"SensorData"};
  BoundChannel anemo_{"AnemoData"};
  BoundChannel gps_{"GPSData"};
  BoundChannel irs_{"IRSData"};
  BoundChannel doppler_{"DopplerData"};
  BoundChannel gain_{"BCPConfigData"};
  BoundChannel declination_{"Declination"};
  BoundChannel to_low_freq_{"BCPData"};
  BoundChannel to_performance_{"BCPForPerf"};
  BoundChannel to_declin_{"BCPForDeclin"};
  BoundChannel out_{"BCP"};
};

/// LowFreqBCP: slow consolidation of the high-rate BCP with raw sensors.
class LowFreqBcpBehavior final : public ProcessBehavior {
 public:
  void on_job(JobContext& ctx) override {
    const std::vector<double> s = as_block(sensors_.read(ctx), 4);
    const double bcp = as_double(bcp_.read(ctx), 0.0);
    consolidated_ = 0.5 * consolidated_ + 0.5 * (0.8 * bcp + 0.05 * (s[1] + s[2]));
    out_.write(ctx, consolidated_);
  }

 private:
  double consolidated_ = 0.0;
  BoundChannel sensors_{"SensorDataLF"};
  BoundChannel bcp_{"BCPData"};
  BoundChannel out_{"BCPLow"};
};

/// MagnDeclin with the paper's period-reduction trick: at the reduced
/// 400 ms period the main body runs once per `stride` invocations (4),
/// keeping the original 1600 ms computation rate.
class MagnDeclinBehavior final : public ProcessBehavior {
 public:
  explicit MagnDeclinBehavior(int stride) : stride_(stride) {}

  void on_job(JobContext& ctx) override {
    if ((ctx.job_index() - 1) % stride_ != 0) {
      return;  // light invocation: body skipped
    }
    const double bcp = as_double(bcp_.read(ctx), 0.0);
    const double table = as_double(table_.read(ctx), 1.0);
    // Toy IGRF-like declination as a smooth function of position.
    const double declination = 0.1 * table * std::sin(bcp / 60.0);
    out_.write(ctx, declination);
  }

 private:
  int stride_;
  BoundChannel bcp_{"BCPForDeclin"};
  BoundChannel table_{"MagnDeclinConfigData"};
  BoundChannel out_{"Declination"};
};

/// Performance: fuel-usage prediction from the BCP trajectory.
class PerformanceBehavior final : public ProcessBehavior {
 public:
  void on_job(JobContext& ctx) override {
    const double bcp = as_double(bcp_.read(ctx), 0.0);
    const double model = as_double(model_.read(ctx), 1.0);
    const double ground_speed = std::abs(bcp - last_bcp_);
    last_bcp_ = bcp;
    fuel_ += model * (0.5 + 0.01 * ground_speed);
    out_.write(ctx, fuel_);
  }

 private:
  double last_bcp_ = 0.0;
  double fuel_ = 0.0;
  BoundChannel bcp_{"BCPForPerf"};
  BoundChannel model_{"PerformanceConfigData"};
  BoundChannel out_{"FuelPrediction"};
};

template <class B, class... Args>
BehaviorFactory make(Args... args) {
  return [=] { return std::make_unique<B>(args...); };
}

}  // namespace

FmsApp build_fms(bool reduced_period) {
  FmsApp app;
  app.reduced_period = reduced_period;
  NetworkBuilder b;
  const auto ms = [](std::int64_t v) { return Duration::ms(v); };

  const Duration magn_period = reduced_period ? ms(400) : ms(1600);
  const int magn_stride = reduced_period ? 4 : 1;

  // Periodic processes (declaration order also breaks rate-monotonic ties:
  // SensorInput over HighFreqBCP at equal 200 ms periods).
  app.sensor_input =
      b.periodic("SensorInput", ms(200), ms(200), make<SensorInputBehavior>());
  app.high_freq_bcp =
      b.periodic("HighFreqBCP", ms(200), ms(200), make<HighFreqBcpBehavior>());
  app.low_freq_bcp =
      b.periodic("LowFreqBCP", ms(5000), ms(5000), make<LowFreqBcpBehavior>());
  app.magn_declin = b.periodic("MagnDeclin", magn_period, magn_period,
                               make<MagnDeclinBehavior>(magn_stride));
  app.performance =
      b.periodic("Performance", ms(1000), ms(1000), make<PerformanceBehavior>());

  // Sporadic configuration processes; deadline 2x the minimal period keeps
  // the server deadline correction d - T_u positive.
  app.anemo_config = b.sporadic("AnemoConfig", 2, ms(200), ms(400),
                                make<ConfigBehavior>("AnemoCmd", "AnemoData"));
  app.gps_config = b.sporadic("GPSConfig", 2, ms(200), ms(400),
                              make<ConfigBehavior>("GPSCmd", "GPSData"));
  app.irs_config = b.sporadic("IRSConfig", 2, ms(200), ms(400),
                              make<ConfigBehavior>("IRSCmd", "IRSData"));
  app.doppler_config = b.sporadic("DopplerConfig", 2, ms(200), ms(400),
                                  make<ConfigBehavior>("DopplerCmd", "DopplerData"));
  app.bcp_config = b.sporadic("BCPConfig", 2, ms(200), ms(400),
                              make<ConfigBehavior>("BCPCmd", "BCPConfigData"));
  app.magn_declin_config =
      b.sporadic("MagnDeclinConfig", 5, ms(1600), ms(3200),
                 make<ConfigBehavior>("MagnDeclinCmd", "MagnDeclinConfigData"));
  app.performance_config =
      b.sporadic("PerformanceConfig", 5, ms(1000), ms(2000),
                 make<ConfigBehavior>("PerformanceCmd", "PerformanceConfigData"));

  // Channels (Fig. 7).
  b.blackboard("SensorData", app.sensor_input, app.high_freq_bcp);
  b.blackboard("SensorDataLF", app.sensor_input, app.low_freq_bcp);
  b.blackboard("AnemoData", app.anemo_config, app.high_freq_bcp);
  b.blackboard("GPSData", app.gps_config, app.high_freq_bcp);
  b.blackboard("IRSData", app.irs_config, app.high_freq_bcp);
  b.blackboard("DopplerData", app.doppler_config, app.high_freq_bcp);
  b.blackboard("BCPConfigData", app.bcp_config, app.high_freq_bcp);
  b.blackboard("BCPData", app.high_freq_bcp, app.low_freq_bcp);
  b.blackboard("BCPForPerf", app.high_freq_bcp, app.performance);
  b.blackboard("BCPForDeclin", app.high_freq_bcp, app.magn_declin);
  b.blackboard("Declination", app.magn_declin, app.high_freq_bcp);
  b.blackboard("MagnDeclinConfigData", app.magn_declin_config, app.magn_declin);
  b.blackboard("PerformanceConfigData", app.performance_config, app.performance);

  // External I/O. Each sporadic reads its command stream by sample index.
  app.sensors_in = b.external_input("Sensors", app.sensor_input);
  b.external_input("AnemoCmd", app.anemo_config);
  b.external_input("GPSCmd", app.gps_config);
  b.external_input("IRSCmd", app.irs_config);
  b.external_input("DopplerCmd", app.doppler_config);
  b.external_input("BCPCmd", app.bcp_config);
  b.external_input("MagnDeclinCmd", app.magn_declin_config);
  b.external_input("PerformanceCmd", app.performance_config);
  app.bcp_out = b.external_output("BCP", app.high_freq_bcp);
  app.bcp_low_out = b.external_output("BCPLow", app.low_freq_bcp);
  app.fuel_out = b.external_output("FuelPrediction", app.performance);

  // Functional priorities: sporadics *below* their periodic users (§V-B),
  // periodic relation rate-monotonic (the auto rule below adds the RM
  // edges for every channel-sharing pair).
  b.priority(app.high_freq_bcp, app.anemo_config);
  b.priority(app.high_freq_bcp, app.gps_config);
  b.priority(app.high_freq_bcp, app.irs_config);
  b.priority(app.high_freq_bcp, app.doppler_config);
  b.priority(app.high_freq_bcp, app.bcp_config);
  b.priority(app.magn_declin, app.magn_declin_config);
  b.priority(app.performance, app.performance_config);
  b.auto_rate_monotonic_priorities();

  app.net = std::move(b).build();
  return app;
}

WcetMap FmsApp::default_wcets() const {
  WcetMap map;
  const auto set = [&map](ProcessId p, std::int64_t ms) {
    map.emplace(p, Duration::ms(ms));
  };
  set(sensor_input, 5);
  set(high_freq_bcp, 10);
  set(low_freq_bcp, 15);
  set(magn_declin, 6);
  set(performance, 8);
  set(anemo_config, 1);
  set(gps_config, 1);
  set(irs_config, 1);
  set(doppler_config, 1);
  set(bcp_config, 1);
  set(magn_declin_config, 1);
  set(performance_config, 1);
  return map;
}

InputScripts FmsApp::make_inputs(std::size_t frames_of_200ms, std::uint64_t seed) const {
  InputScripts scripts;
  std::vector<Value> blocks;
  blocks.reserve(frames_of_200ms);
  std::uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>((state >> 33) % 2000) / 10.0 - 100.0;
  };
  for (std::size_t f = 0; f < frames_of_200ms; ++f) {
    blocks.emplace_back(std::vector<double>{next(), next(), next(), next()});
  }
  scripts.emplace(sensors_in, std::move(blocks));
  // Command streams: slowly drifting positive weights/gains.
  const auto cmd_channel = [this](const std::string& name) {
    return *net.find_channel(name);
  };
  const std::vector<std::string> cmds = {"AnemoCmd", "GPSCmd",         "IRSCmd",
                                         "DopplerCmd", "BCPCmd",       "MagnDeclinCmd",
                                         "PerformanceCmd"};
  for (const std::string& c : cmds) {
    std::vector<Value> vals;
    for (std::size_t k = 0; k < frames_of_200ms * 2 + 16; ++k) {
      vals.emplace_back(0.5 + 0.1 * static_cast<double>(k % 10));
    }
    scripts.emplace(cmd_channel(c), std::move(vals));
  }
  return scripts;
}

std::map<ProcessId, SporadicScript> FmsApp::random_commands(Time horizon,
                                                            std::uint64_t seed) const {
  std::map<ProcessId, SporadicScript> out;
  std::uint64_t salt = seed;
  for (const ProcessId p : sporadics()) {
    const EventSpec& spec = net.process(p).event;
    out.emplace(p, SporadicScript::random(spec.burst, spec.period, horizon, ++salt));
  }
  return out;
}

}  // namespace fppn::apps
