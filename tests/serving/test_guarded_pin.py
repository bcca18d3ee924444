"""Pinned report of a guarded nginx serve.

The guard page on the response-body context (``nginx_body_patch``) is
the hottest enhanced path in serving.  This pins the report of one
fixed run — benign paths, missing-path error pages and ``!leak``
attacks — so any change to how guarded buffers are laid out, charged or
released shows up as a changed digest or cycle count.
"""

from repro.ccencoding import Strategy
from repro.core.instrument import instrument
from repro.patch import config as patch_config
from repro.serving.engine import ServingEngine, ServingOptions
from repro.serving.services import ServedService, nginx_body_patch
from repro.workloads.services import nginx

REQUESTS = 300
BATCH = 64
ATTACK_EVERY = 50

#: Recorded from the object-building guard path this run was first
#: served with; the integer guard path must reproduce it exactly.
PINNED_DIGEST = (
    "6a3e46898faa1bbe14174db5c14d377aa4bac81f73f9498cb5a18532a1717995")
PINNED_CYCLES = {
    "base": 8070966, "defense": 2790000, "encoding": 793,
    "interpose": 169920, "lookup": 14688, "metadata": 184080,
}


def fixed_stream(count):
    """Every document in turn, with a missing path every seventh."""
    paths = sorted(nginx.DOCUMENT_TREE)
    return [nginx.MISSING_PATH if index % 7 == 6
            else paths[index % len(paths)] for index in range(count)]


def test_guarded_serve_report_is_pinned():
    program = nginx.NginxServer()
    codec = instrument(program, strategy=Strategy.INCREMENTAL).codec
    options = ServingOptions(
        service="nginx", workers=1, requests=REQUESTS, batch_size=BATCH,
        attack_every=ATTACK_EVERY,
        patches_text=patch_config.dumps([nginx_body_patch(program, codec)]))
    service = ServedService("nginx", nginx.NginxServer, stream=fixed_stream,
                            attack_token=nginx.LEAK_REQUEST)
    with ServingEngine(options, service=service, program=program,
                       codec=codec) as engine:
        report = engine.serve().report
    assert report["outcomes"] == {"blocked": REQUESTS // ATTACK_EVERY,
                                  "ok": REQUESTS}
    assert report["outcomes_digest"] == PINNED_DIGEST
    assert report["cycles"] == PINNED_CYCLES
