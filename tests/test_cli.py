"""CLI surface: python -m hinbox_ray (the reference's process_and_extract
entry). Runs in a subprocess because the CLI owns its own Ray session."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("resume", [False, True])
def test_cli_end_to_end(tmp_path, resume):
    """Both branches write through ``write_kg`` and print the triple
    count read from the written files."""
    import re

    import pyarrow.parquet as pq

    pages = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    gen = subprocess.run(
        [
            sys.executable,
            "-c",
            "import ray; ray.init(address='local', num_cpus=4, "
            "include_dashboard=False, logging_level='ERROR'); "
            "from hinbox_ray.sources.pages import write_pages_parquet; "
            f"write_pages_parquet({pages!r}, n=120, num_shards=2); "
            "ray.shutdown()",
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert gen.returncode == 0, gen.stderr[-2000:]

    cmd = [
        sys.executable,
        "-m",
        "hinbox_ray",
        "--pages",
        pages,
        "--out",
        out,
        "--num-cpus",
        "4",
    ]
    if resume:
        cmd.append("--resume")
    run = subprocess.run(
        cmd, cwd=REPO, capture_output=True, text=True, timeout=480
    )
    assert run.returncode == 0, run.stderr[-2000:]
    tdir = os.path.join(out, "triples")
    wrote = re.search(r"wrote (\d+) triples to (\S+)", run.stderr)
    assert wrote and wrote.group(2) == tdir, run.stderr[-2000:]
    assert int(wrote.group(1)) == pq.read_table(tdir).num_rows > 0
    assert pq.read_table(os.path.join(out, "entities")).num_rows > 0
    assert os.path.exists(os.path.join(out, "merge_stats.json"))
    # lineage manifests exist → a re-run would resume
    assert os.path.isdir(os.path.join(out, "_lineage")) == resume


def test_domain_scaffolding(tmp_path):
    """§2.11 parity: init-domain creates a loadable package; list-domains
    enumerates it; duplicates and bad names are refused (reference
    scripts/init_domain.py:11-53)."""
    import pytest as _pytest

    from hinbox_ray.__main__ import main
    from hinbox_ray.config import DomainConfig
    from hinbox_ray.domains import init_domain, list_domains

    cdir = str(tmp_path / "configs")
    rc = main(["--init-domain", "mydomain", "--configs-dir", cdir])
    assert rc == 0
    cfg = DomainConfig.from_yaml(os.path.join(cdir, "mydomain", "config.yaml"))
    assert cfg.domain == "mydomain"
    assert cfg.threshold("people") == 0.82
    for sub in ("categories", "prompts"):
        assert len(os.listdir(os.path.join(cdir, "mydomain", sub))) == 4
    assert list_domains(cdir) == ["mydomain"]
    with _pytest.raises(FileExistsError):
        init_domain("mydomain", cdir)
    with _pytest.raises(ValueError):
        init_domain("bad-name!", cdir)
    # a user-shipped template dir is copied verbatim
    os.makedirs(os.path.join(cdir, "template"))
    with open(os.path.join(cdir, "template", "config.yaml"), "w") as f:
        f.write("domain: fromtemplate\n")
    init_domain("copyme", cdir)
    assert (
        DomainConfig.from_yaml(os.path.join(cdir, "copyme", "config.yaml")).domain
        == "fromtemplate"
    )
    assert list_domains(cdir) == ["copyme", "mydomain"]
