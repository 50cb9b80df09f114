#ifndef CDIBOT_TELEMETRY_TICKETS_H_
#define CDIBOT_TELEMETRY_TICKETS_H_

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/statusor.h"
#include "common/time.h"
#include "event/event.h"

namespace cdibot {

/// A customer support ticket about a stability issue (Fig. 2 classifies 18
/// months of these; Sec. IV-C counts them per event to form the customer
/// weight).
struct Ticket {
  int64_t id = 0;
  TimePoint time{};
  std::string target{};
  std::string text{};
  /// The related CloudBot event name, when the investigation identified one
  /// (drives Eq. 2); may be empty.
  std::string related_event{};
};

/// Keyword-based ticket classifier — the PAI classification-model stand-in
/// of Fig. 4. Maps ticket text to one of the three stability categories.
class TicketClassifier {
 public:
  TicketClassifier();

  /// Classifies one ticket. Unrecognized text falls back to performance
  /// (the paper's most common category).
  StabilityCategory Classify(const Ticket& ticket) const;

  /// Convenience: category histogram over a batch.
  std::map<StabilityCategory, size_t> Histogram(
      const std::vector<Ticket>& tickets) const;

 private:
  // keyword -> category, checked in order.
  std::vector<std::pair<std::string, StabilityCategory>> keywords_;
};

/// Configuration for the synthetic ticket generator.
struct TicketWorkloadSpec {
  Interval window;
  size_t count = 1000;
  /// Probability of each category (unavailability, performance,
  /// control-plane); Fig. 2's observed mix is {0.27, 0.44, 0.29}.
  double p_unavailability = 0.27;
  double p_performance = 0.44;
  double p_control_plane = 0.29;
};

/// Generates `spec.count` tickets whose text matches the classifier
/// vocabulary, with category proportions from the spec, and a related event
/// name sampled from the catalog events of that category. Requires
/// probabilities summing to 1 (+-1e-9) and a non-empty window.
StatusOr<std::vector<Ticket>> GenerateTickets(const TicketWorkloadSpec& spec,
                                              Rng* rng);

/// Aggregates tickets into per-event ticket counts over the window — the
/// Eq.-2 input gathered "over the previous year". Tickets without a related
/// event are skipped.
std::map<std::string, int64_t> CountTicketsByEvent(
    const std::vector<Ticket>& tickets);

}  // namespace cdibot

#endif  // CDIBOT_TELEMETRY_TICKETS_H_
