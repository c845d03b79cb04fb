"""The one deployment path every deployment sweep shares.

Table 5, the scenario sweep, the chaos sweep, and the crowd and stream
rounds all deploy Hang Doctor through :func:`deploy`, and the sweeps
that deploy per app key its seed with :func:`fleet_app_seed`.  This
module imports no app catalog, so a sweep over generated apps loads
none of the hand-modelled ones.
"""

from repro.base.rng import substream_seed
from repro.core.hang_doctor import HangDoctor
from repro.detectors.runner import DetectorRun, run_detector
from repro.sim.engine import ExecutionEngine


def fleet_app_seed(seed, app_name):
    """Per-app seed for the fleet study, derived from the root seed.

    Every app must consume its *own* RNG streams: seeding each app's
    engine and Hang Doctor with the raw root seed would make all 114
    apps draw identical noise sequences (identical S-Checker sampling
    error, identical trace jitter), cross-correlating the fleet
    statistics.  Deriving through the keyed hash also makes an app's
    run independent of its corpus position, which is what lets shards
    execute on any worker in any order.
    """
    return substream_seed(seed, "fleet", app_name)


def deploy(app, device, seed, sessions, **doctor_options):
    """Deploy Hang Doctor on *app* for *sessions*; returns ``(doctor, run)``.

    The doctor is seeded with *seed* and built with *doctor_options*
    (``config``, ``blocking_db``, ``faults``, ``crowd_kb``); its engine
    shares the seed and simulates only the events the doctor's filter
    reads.  Each session runs with one-second gaps between actions,
    on the device of the session's user, and *run* is one
    :class:`~repro.detectors.runner.DetectorRun` over all of them
    (empty when there are no sessions).
    """
    doctor = HangDoctor(app, device, seed=seed, **doctor_options)
    engine = ExecutionEngine(
        device, seed=seed, monitored=doctor.config.filter_events()
    )
    runs = [
        run_detector(
            doctor,
            engine.run_session(app, session.action_names, gap_ms=1000.0),
            device_id=session.user_id,
        )
        for session in sessions
    ]
    return doctor, DetectorRun.merge([DetectorRun(doctor.name), *runs])
