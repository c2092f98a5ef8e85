"""CLI surface: python -m hinbox_ray (the reference's process_and_extract
entry). Runs in a subprocess because the CLI owns its own Ray session."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("sharded", [False, True])
def test_cli_end_to_end(tmp_path, sharded):
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
        "--resume",
        "--num-cpus",
        "4",
    ]
    if sharded:
        cmd.append("--sharded-triples")
    run = subprocess.run(
        cmd, cwd=REPO, capture_output=True, text=True, timeout=480
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert "wrote" in run.stderr

    tdir = os.path.join(out, "triples")
    names = sorted(os.listdir(tdir))
    if sharded:
        assert names and all(n.startswith("shard=") for n in names)
    else:
        assert any(n.endswith(".parquet") for n in names)
    # lineage manifests exist → a re-run would resume
    assert os.path.isdir(os.path.join(out, "_lineage"))
    assert os.path.exists(os.path.join(out, "merge_stats.json"))


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


def test_sharded_triples_requires_resume(tmp_path):
    """Only the resume path writes the sharded layout, so the flag alone
    is refused as a usage error before any Ray session starts."""
    from hinbox_ray.__main__ import main

    argv = ["--pages", str(tmp_path / "pages"), "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--sharded-triples"])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()
