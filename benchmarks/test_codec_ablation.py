"""§2.4.1 ablation — summary exchange bandwidth vs detection power.

The paper discusses three ways to communicate content summaries: full
fingerprint sets, characteristic-polynomial set reconciliation
(optimal-bandwidth, Appendix A), and Bloom filters (constant size,
approximate).  This bench runs the same Πk+2 deployment with each codec
on the same attack and compares wire bytes and detection.
"""

from conftest import save_series

from repro.core import PiConfig, arm_protocol
from repro.net import (
    CBRSource,
    DropFlowAttack,
    Network,
    chain,
    install_static_routes,
)


def run_codec(codec: str):
    net = Network(chain(5))
    protocol = arm_protocol(
        net, install_static_routes(net), "pik2", last_round=5,
        config=PiConfig(codec=codec))
    CBRSource(net, "r1", "r5", "f1", rate_bps=800_000, duration=6.0)
    net.routers["r3"].compromise = DropFlowAttack(["f1"], fraction=0.1,
                                                  seed=1)
    net.run(9.0)
    detected = any("r3" in seg
                   for seg in protocol.states["r1"].suspected_segments())
    return protocol.exchange_bytes, detected


def test_codec_ablation(benchmark):
    results = benchmark.pedantic(
        lambda: {codec: run_codec(codec)
                 for codec in ("full", "polynomial", "bloom")},
        rounds=1, iterations=1,
    )
    lines = ["codec       wire_bytes  detected"]
    for codec, (wire, detected) in results.items():
        lines.append(f"{codec:10s}  {wire:10d}  {detected}")
    save_series("codec_ablation", lines)

    # All codecs detect; polynomial is the bandwidth winner.
    assert all(detected for _, detected in results.values())
    full_bytes = results["full"][0]
    assert results["polynomial"][0] < full_bytes / 2
    assert results["bloom"][0] < full_bytes
