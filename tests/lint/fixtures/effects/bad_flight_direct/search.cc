// ujoin-effects-fixture: as=src/join/search.cc
//
// Seeded violations: pipeline code recording flight events by calling the
// FlightRecorder directly.  These sites keep running when -DUJOIN_OBS=OFF
// is supposed to compile instrumentation out, and they dodge the
// flight-path effects contract rooted at the macro's expansion.
namespace ujoin {

namespace obs {
enum class FlightEvent : int { kQueryBegin, kQueryEnd };
class FlightRecorder {
 public:
  void RecordEvent(FlightEvent kind, long a, long b);
};
FlightRecorder* GlobalFlightRecorder();
}  // namespace obs

void ProbeOnce(long deadline_ns) {
  obs::GlobalFlightRecorder()->RecordEvent(  // violation
      obs::FlightEvent::kQueryBegin, deadline_ns, 0);
}

void FinishProbe(obs::FlightRecorder& recorder, long hits) {
  recorder.RecordEvent(obs::FlightEvent::kQueryEnd, hits, 0);  // violation
}

}  // namespace ujoin
