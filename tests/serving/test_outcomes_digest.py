"""The outcome digest is rendered in the workers, byte for byte.

Each worker renders its batch's outcomes as a JSON fragment
(:func:`~repro.serving.session.outcomes_fragment`) and the engine only
joins and hashes them.  The digest must stay the one every earlier
report carried: ``sha256`` of ``json.dumps(all_outcomes,
sort_keys=True, separators=(",", ":"))`` over the outcomes of every
batch in batch order.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.serving.engine import ServingEngine, ServingOptions, serve
from repro.serving.session import BatchResult, outcomes_fragment

#: Patch config for nginx's response-body context under the
#: incremental strategy (``nginx_body_patch``), so ``!leak`` attacks
#: are blocked.
BODY_PATCH = ("# HeapTherapy+ patch configuration\n"
              "fun=malloc ccid=0x9e5651b0ef953636 type=overflow\n")

#: Digests recorded before the workers rendered the outcomes; every
#: worker count must reproduce them.
PINNED = {
    "nginx-leak": (
        ServingOptions(service="nginx", requests=400, batch_size=50,
                       attack_every=40),
        "4ad3a8e8e710acab89e6f5d4843478be7f989c5eb0ec522fd6bb819b37fbf1b5"),
    "nginx-blocked": (
        ServingOptions(service="nginx", requests=400, batch_size=50,
                       attack_every=40, patches_text=BODY_PATCH),
        "6a9c96f83e6e7af6d2073238e5679db42b4546ef7fbedd4528c0a01aac80fa0a"),
    "mysql": (
        ServingOptions(service="mysql", requests=400, batch_size=50),
        "65d35628658547db5f98b5b66cb48f53c19fcb27b26fd948186cf8f6af4639f0"),
}


def old_digest(outcomes):
    return hashlib.sha256(
        json.dumps(outcomes, sort_keys=True,
                   separators=(",", ":")).encode()).hexdigest()


def batch(index, outcomes):
    return BatchResult(
        index=index, outcomes=tuple(outcomes),
        outcomes_json=outcomes_fragment(outcomes),
        served=len(outcomes), bytes_sent=sum(sent for _, sent in outcomes),
        cycles=(("base", 1.0),), profile=(), table_version=0)


class TestDigestFormula:
    @pytest.mark.parametrize("per_batch", [
        [[("ok", 120), ("leak", 4096)], [], [("blocked", 0)],
         [("ok", 7), ("error", 0), ("ok", 0)]],
        [[], [("blocked", 0)], []],
        [[], []],
        [],
    ])
    def test_joined_fragments_match_one_dump(self, per_batch):
        engine = ServingEngine(ServingOptions(requests=1))
        batches = [batch(index, outcomes)
                   for index, outcomes in enumerate(per_batch)]
        report = engine._build_report(batches)
        every = [outcome for outcomes in per_batch for outcome in outcomes]
        assert report["outcomes_digest"] == old_digest(every)

    def test_empty_batch_renders_nothing(self):
        assert outcomes_fragment([]) == ""
        assert outcomes_fragment([("blocked", 0)]) == '["blocked",0]'


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("run", sorted(PINNED))
def test_served_digest_is_pinned(run, workers):
    options, digest = PINNED[run]
    result = serve(replace(options, workers=workers))
    assert result.report["outcomes_digest"] == digest
    every = [outcome for b in result.batches for outcome in b.outcomes]
    assert old_digest(every) == digest
