// Table III reproduction: simulation times and accuracy evaluation.
//
// PSMs are generated from short-TS; then the long testset is simulated
// for 500000 instants (--cycles N to override) twice on the SystemC-lite
// kernel: once with the IP model alone ("IP sim.") and once with the IP
// connected to the PSM power monitor ("IP+PSMs"). The overhead column is
// the relative cost of co-simulating the power model. MRE and WSP report
// the accuracy of the short-TS PSMs on the long testset (the paper's
// generalization experiment). The bench also times the gate-level
// surrogate and the PSM-only estimation on the same trace: the paper's
// "up to two orders of magnitude faster than PrimeTime PX", measured
// against this repository's surrogate instead of PrimeTime PX.

#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "common/strings.hpp"
#include "core/report.hpp"
#include "sysc/modules.hpp"

namespace {

struct PaperRow {
  double ip_sim, ip_psm, overhead, mre, wsp;
};

PaperRow paperRow(psmgen::ip::IpKind kind) {
  using psmgen::ip::IpKind;
  switch (kind) {
    case IpKind::Ram: return {13.8, 17.5, 26.4, 0.29, 0.0};
    case IpKind::MultSum: return {20.4, 24.2, 18.4, 3.97, 0.0};
    case IpKind::Aes: return {93.4, 98.7, 5.6, 3.11, 0.0};
    case IpKind::Camellia: return {277.1, 286.9, 3.5, 32.64, 20.0};
  }
  return {};
}

double seconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psmgen;
  const std::size_t cycles = bench::cyclesArg(argc, argv, 500000);
  bench::obsArgs(argc, argv);
  bench::ProfileScope profile(argc, argv);
  std::printf("== Table III: simulation times and accuracy evaluation ==\n");
  std::printf("(short-TS PSMs stimulated with the long testset, %zu "
              "instants)\n\n", cycles);

  core::Table table({"IP", "IP sim. (s)", "IP+PSMs (s)", "Overhead", "MRE",
                     "WSP", "Gate-level est. (s)", "PSM-only est. (s)",
                     "paper:Ovh", "paper:MRE", "paper:WSP"});
  for (const ip::IpKind kind : ip::kAllIps) {
    const bench::FlowRun run =
        bench::trainFlow(kind, ip::TestsetMode::Short, ip::shortTSPlan(kind));

    // --- IP alone on the SystemC-lite kernel -------------------------
    auto device = ip::makeDevice(kind);
    auto tb = ip::makeTestbench(kind, ip::TestsetMode::Long, 0x715EED);
    sysc::Signal<sysc::PortRow> ports;
    sysc::IpModule ip_module(*device, *tb, ports);
    double t_ip = 0.0;
    {
      sysc::Kernel kernel;
      kernel.add(ip_module);
      kernel.add(ports);
      const auto t0 = std::chrono::steady_clock::now();
      kernel.run(cycles);
      t_ip = seconds(t0);
    }

    // --- IP + PSM power monitor --------------------------------------
    sysc::Signal<double> power_w;
    sysc::PsmModule psm_module(run.flow->simulator(), ports, power_w);
    double t_ip_psm = 0.0;
    {
      sysc::Kernel kernel;
      kernel.add(ip_module);
      kernel.add(psm_module);
      kernel.add(ports);
      kernel.add(power_w);
      const auto t0 = std::chrono::steady_clock::now();
      kernel.run(cycles);
      t_ip_psm = seconds(t0);
    }
    const double overhead = t_ip > 0.0 ? 100.0 * (t_ip_psm - t_ip) / t_ip : 0.0;

    // --- accuracy + PSM-only estimation time -------------------------
    auto eval_device = ip::makeDevice(kind);
    power::GateLevelEstimator estimator(*eval_device, ip::powerConfig(kind));
    auto eval_tb = ip::makeTestbench(kind, ip::TestsetMode::Long, 0x715EED);
    const auto tg = std::chrono::steady_clock::now();
    auto pair = estimator.run(*eval_tb, cycles);
    const double t_gate = seconds(tg);
    const auto t0 = std::chrono::steady_clock::now();
    const core::SimResult sim = run.flow->estimate(pair.functional);
    const double t_psm_only = seconds(t0);
    const double mre =
        trace::meanRelativeError(sim.estimate, pair.power.samples());

    const PaperRow p = paperRow(kind);
    table.addRow({ip::ipName(kind), common::formatDouble(t_ip, 2),
                  common::formatDouble(t_ip_psm, 2),
                  common::formatDouble(overhead, 1) + " %",
                  common::formatDouble(100.0 * mre, 2) + " %",
                  common::formatDouble(sim.wspPercent(), 1) + " % (" +
                      std::to_string(sim.wrong_predictions) + "/" +
                      std::to_string(sim.predictions) + ")",
                  common::formatDouble(t_gate, 2),
                  common::formatDouble(t_psm_only, 2),
                  common::formatDouble(p.overhead, 1) + " %",
                  common::formatDouble(p.mre, 2) + " %",
                  common::formatDouble(p.wsp, 0) + " %"});
  }
  table.print(std::cout);
  std::printf(
      "\nPaper shape (Sec. VI): the co-simulation overhead is small and\n"
      "inversely proportional to IP complexity (largest for RAM, smallest\n"
      "for Camellia); PSM-only estimation is up to two orders of magnitude\n"
      "faster than PrimeTime PX; MREs match Table II. The gate-level\n"
      "column here is this repository's surrogate, which is far cheaper\n"
      "than PrimeTime PX, so expect a smaller speedup.\n");
  return 0;
}
