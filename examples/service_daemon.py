"""Run CBES as a network service and schedule through it.

The paper describes CBES as a daemon that "serves mapping comparison
requests from external clients such as the schedulers".  This example
stands up that deployment shape in-process: a calibrated service is
wrapped in the asyncio daemon (ephemeral port), and a blocking client
submits scheduling and prediction jobs over JSON/HTTP — then the remote
answer is checked against a direct in-process `CBES.schedule()` call.

Run:  python examples/service_daemon.py
"""

from repro import CBES
from repro.cluster import single_switch
from repro.schedulers import CbesScheduler
from repro.server import BackpressureError, DaemonThread
from repro.workloads import SyntheticBenchmark


def main() -> None:
    # 1. A calibrated service with one profiled application — exactly
    #    what `repro serve` builds from an on-disk profile database.
    cluster = single_switch("mini", 8)
    service = CBES(cluster)
    service.calibrate(seed=2)
    app = SyntheticBenchmark(comm_fraction=0.25, duration_s=3.0, steps=5)
    service.profile_application(app, 4, seed=1)
    service.start_monitoring(forecaster="last-value", seed=0)

    # 2. Boot the daemon on a dedicated thread (port=0 -> ephemeral).
    #    In production you would run `repro serve --port 8080` instead.
    with DaemonThread(service, workers=2, queue_limit=8, refresh_interval_s=5.0) as srv:
        client = srv.client()
        health = client.healthz()
        print(f"daemon up at http://{srv.host}:{srv.port} status={health['status']}")
        print(f"profiles on offer: {client.profiles()}")

        # 3. Submit a CS scheduling job and wait for the result.
        remote = client.schedule(app.name, scheduler="cs", seed=7)
        print(
            f"remote CS mapping: {remote['mapping']} "
            f"({remote['predicted_time']:.3f}s predicted, "
            f"{remote['evaluations']} mappings evaluated)"
        )

        # 4. The service answer matches a direct in-process call, which
        #    reuses the context the daemon built for this snapshot.
        direct = service.schedule(app.name, CbesScheduler(), cluster.node_ids(), seed=7)
        agrees = remote["mapping"] == list(direct.mapping.as_tuple())
        print(f"matches direct CBES.schedule(): {agrees}")

        # 5. Prediction requests ride the same job queue.
        nodes = cluster.node_ids()[:4]
        prediction = client.predict(app.name, nodes)
        critical = prediction["critical_breakdown"]
        print(
            f"predict on {nodes}: {prediction['execution_time']:.3f}s, "
            f"critical rank {prediction['critical_rank']} on {critical['node']} "
            f"({critical['computation']:.2f}s comp + {critical['communication']:.2f}s comm)"
        )

        # 6. The queue is bounded: saturating it yields HTTP 429 with a
        #    Retry-After hint instead of unbounded memory growth.
        accepted = rejected = 0
        for seed in range(24):
            try:
                client.submit("schedule", app=app.name, scheduler="cs", seed=seed)
                accepted += 1
            except BackpressureError as exc:
                rejected += 1
                retry_hint = exc.retry_after_s
        if rejected:
            print(
                f"backpressure: {accepted} accepted, {rejected} got 429 "
                f"(retry after {retry_hint:.0f}s)"
            )
        print(f"daemon processed {client.healthz()['jobs']['done']} jobs; shutting down...")
    # Leaving the `with` block drains in-flight jobs and stops the daemon.
    print("daemon drained and stopped")


if __name__ == "__main__":
    main()
