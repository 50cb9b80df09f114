// GCC 12's -Wmaybe-uninitialized misfires inside libstdc++'s std::regex
// compiler (the std::function move in _NFA::_M_insert_subexpr_*) once the
// sanitizer builds instrument it; the code is libstdc++'s, not ours, and
// this file is the one that instantiates it.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include "extract/log_rules.h"

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cdibot {

StatusOr<LogRuleExtractor> LogRuleExtractor::Create(
    std::vector<LogRule> rules) {
  std::vector<CompiledRule> compiled;
  compiled.reserve(rules.size());
  for (LogRule& rule : rules) {
    if (rule.event_name.empty()) {
      return Status::InvalidArgument("log rule needs an event name");
    }
    try {
      compiled.push_back(
          CompiledRule{rule, std::regex(rule.pattern,
                                        std::regex::ECMAScript |
                                            std::regex::optimize)});
    } catch (const std::regex_error& e) {
      return Status::InvalidArgument("bad regex for " + rule.event_name +
                                     ": " + e.what());
    }
  }
  return LogRuleExtractor(std::move(compiled));
}

StatusOr<LogRuleExtractor> LogRuleExtractor::BuiltIn() {
  return Create({
      // Example 1: "eth0 NIC Link is Down" at 12:16:28 becomes nic_flapping.
      LogRule{.event_name = "nic_flapping",
              .pattern = R"(NIC Link is Down)",
              .level = Severity::kCritical},
      // Sec. IV-B1: QEMU live upgrade logs its pause in milliseconds.
      LogRule{.event_name = "qemu_live_upgrade",
              .pattern = R"(qemu: live upgrade complete, pause=(\d+)ms)",
              .level = Severity::kWarning,
              .duration_group = 1},
      LogRule{.event_name = "vm_crash",
              .pattern = R"(guest panic|kvm: vcpu fatal error)",
              .level = Severity::kFatal},
      LogRule{.event_name = "vm_hang",
              .pattern = R"(watchdog: guest unresponsive)",
              .level = Severity::kFatal},
      LogRule{.event_name = "gpu_drop",
              .pattern = R"(GPU has fallen off the bus)",
              .level = Severity::kFatal},
  });
}

std::optional<RawEvent> LogRuleExtractor::Extract(const LogLine& line) const {
  for (const CompiledRule& compiled : rules_) {
    std::smatch match;
    if (!std::regex_search(line.text, match, compiled.re)) continue;
    RawEvent ev;
    ev.name = compiled.rule.event_name;
    ev.time = line.time;
    ev.target = line.target;
    ev.level = compiled.rule.level;
    ev.expire_interval = compiled.rule.expire_interval;
    if (compiled.rule.duration_group > 0 &&
        static_cast<size_t>(compiled.rule.duration_group) < match.size()) {
      ev.attrs["duration_ms"] =
          match[static_cast<size_t>(compiled.rule.duration_group)].str();
    }
    return ev;
  }
  return std::nullopt;
}

std::vector<RawEvent> LogRuleExtractor::ExtractAll(
    const std::vector<LogLine>& lines) const {
  TRACE_SPAN("extract.log_rules");
  std::vector<RawEvent> out;
  for (const LogLine& line : lines) {
    auto ev = Extract(line);
    if (ev.has_value()) out.push_back(std::move(*ev));
  }
  static obs::Counter* scanned = obs::MetricsRegistry::Global().GetCounter(
      "extract.log_lines_scanned");
  static obs::Counter* extracted =
      obs::MetricsRegistry::Global().GetCounter("extract.log_events");
  scanned->Add(lines.size());
  extracted->Add(out.size());
  return out;
}

}  // namespace cdibot
