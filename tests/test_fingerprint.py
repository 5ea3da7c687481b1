"""The bit-identity fingerprint (``tests/fingerprint.py``) runs and reports
every digest."""

import re

import fingerprint


def test_the_smallest_config_reports_every_digest():
    result = fingerprint.fingerprint("leaky_relu")
    assert set(result) == {"parameters", "train_log", "labels", "chunks"}
    assert len(result["train_log"]) == 2 and result["chunks"]
    digests = [result["parameters"], result["labels"], *result["train_log"], *result["chunks"]]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in digests)
