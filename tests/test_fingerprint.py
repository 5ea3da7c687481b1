"""The bit-identity fingerprint (``tests/fingerprint.py``) runs, reports
every digest, and names each one that differs from a saved copy."""

import json
import re

import pytest

import fingerprint


@pytest.fixture(scope="module")
def smallest():
    return {"leaky_relu": fingerprint.fingerprint("leaky_relu")}


def test_the_smallest_config_reports_every_digest(smallest):
    result = smallest["leaky_relu"]
    assert set(result) == {"parameters", "train_log", "labels", "chunks"}
    assert len(result["train_log"]) == 2 and result["chunks"]
    digests = [result["parameters"], result["labels"], *result["train_log"], *result["chunks"]]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in digests)


def test_against_names_each_tampered_digest_and_exits_1(smallest, tmp_path, capsys):
    saved = tmp_path / "saved.json"
    saved.write_text(json.dumps(smallest))
    assert fingerprint.main(["--against", str(saved), "leaky_relu"]) == 0
    assert capsys.readouterr().out.strip() == f"same as {saved}: leaky_relu"

    tampered = json.loads(json.dumps(smallest))
    tampered["leaky_relu"]["parameters"] = "0" * 64
    tampered["leaky_relu"]["chunks"][-1] = "f" * 64
    tampered["leaky_relu"]["train_log"].append("e" * 64)
    saved.write_text(json.dumps(tampered))
    assert fingerprint.main(["--against", str(saved), "leaky_relu"]) == 1
    lines = capsys.readouterr().out.splitlines()
    last = len(smallest["leaky_relu"]["chunks"]) - 1
    assert [line.split(":")[0] for line in lines] == [
        "leaky_relu parameters", "leaky_relu train_log[2]", f"leaky_relu chunks[{last}]"]
    assert lines[0].endswith(f"!= {'0' * 64}") and "None != " + "e" * 64 in lines[1]


def test_a_config_missing_from_the_saved_file_is_a_difference(smallest):
    assert fingerprint.differences(smallest, {}) == ["leaky_relu: not in the saved fingerprint"]


def test_a_loaded_model_that_serves_other_bytes_exits_1(monkeypatch):
    load = fingerprint.load_checkpoint

    def perturbed(path):
        model = load(path)
        param = model.named_parameters()["decoder.layer0.attn_self.proj_v.weight"]
        param.data = param.data + 0.5
        return model

    monkeypatch.setattr(fingerprint, "load_checkpoint", perturbed)
    with pytest.raises(SystemExit, match="checkpoint-loaded model serves other labels or chunks"):
        fingerprint.fingerprint("leaky_relu")
