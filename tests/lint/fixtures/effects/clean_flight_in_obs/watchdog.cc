// ujoin-effects-fixture: as=src/obs/watchdog.cc
//
// Scoping check: inside src/obs/ the FlightRecorder API is the
// implementation itself — the watchdog records its own capture events —
// so direct RecordEvent calls are allowed.  Taking the recorder pointer
// (GlobalFlightRecorder()) elsewhere is also fine; only recording is
// confined to the macro.
namespace ujoin {
namespace obs {

enum class FlightEvent : int { kStallCaptured };
class FlightRecorder {
 public:
  void RecordEvent(FlightEvent kind, long a, long b);
};

void CaptureStall(FlightRecorder* recorder, long slot, long elapsed_ns) {
  recorder->RecordEvent(FlightEvent::kStallCaptured, slot,
                        elapsed_ns);  // in src/obs/: allowed
}

}  // namespace obs
}  // namespace ujoin
