"""CLI entry point — the analog of the reference's
``python -m src.process_and_extract`` (process_and_extract.py:770-870).

    python -m hinbox_ray --pages <dir-or-file> --out <dir> \
        [--domain-config config.yaml] [--limit N] [--resume]

Reads a pages Parquet corpus (url, warc_ts, html, text, lang), runs the
KG-construction pipeline, and writes triples/ + entities/ Parquet under
--out. With --resume, extraction checkpoints per input partition via
lineage manifests (state/lineage.py) and a re-run skips finished
partitions. Owns its Ray session (guarded init — the library never
calls ray.init).
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="hinbox_ray")
    ap.add_argument("--pages", help="pages parquet dir/file")
    ap.add_argument("--out", help="output directory")
    # domain-package scaffolding (§2.11; reference scripts/init_domain.py
    # + list_domains.py) — these run WITHOUT a Ray session
    ap.add_argument(
        "--init-domain",
        metavar="NAME",
        help="scaffold configs/<NAME>/ (config.yaml + categories/ + prompts/) and exit",
    )
    ap.add_argument(
        "--list-domains", action="store_true", help="list domain packages and exit"
    )
    ap.add_argument(
        "--configs-dir", default="configs", help="domain-package root (default: configs)"
    )
    ap.add_argument("--domain-config", help="domain config.yaml (optional)")
    ap.add_argument("--limit", type=int, help="head-of-corpus limit (reference --limit)")
    ap.add_argument("--resume", action="store_true", help="checkpoint + resume extraction per partition")
    ap.add_argument("--num-cpus", type=int, default=None)
    args = ap.parse_args(argv)

    if args.init_domain or args.list_domains:
        from .domains import init_domain, list_domains

        if args.init_domain:
            path = init_domain(args.init_domain, args.configs_dir)
            print(f"created domain package: {path}", file=sys.stderr)
        if args.list_domains:
            for d in list_domains(args.configs_dir):
                print(d)
        return 0
    if not args.pages or not args.out:
        ap.error("--pages and --out are required (unless scaffolding domains)")

    import ray

    if not ray.is_initialized():
        # No explicit address: under `ray job submit` the driver joins
        # the submitting cluster; standalone it honors $RAY_ADDRESS
        # (preset to "local" in this sandbox) or starts a local
        # instance. Hardcoding address="local" would wrongly spin up a
        # second Ray inside a cluster job.
        kwargs = {"include_dashboard": False}
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(**kwargs)

    from .config import DomainConfig
    from .pipelines.kg import build_kg, write_kg

    cfg = (
        DomainConfig.from_yaml(args.domain_config)
        if args.domain_config
        else DomainConfig()
    )

    if args.resume:
        from .state.lineage import resolve_from_checkpoint, run_extract_with_resume

        if args.limit:
            # the resume unit is the input shard, not a row count; a
            # silent full-corpus run would diverge from the reference's
            # --limit semantics (process_and_extract.py:180-184)
            ap.error("--limit is incompatible with --resume (resume is per input shard)")
        run_extract_with_resume(args.pages, args.out, cfg)
        _, written = resolve_from_checkpoint(args.out, cfg)
    else:
        from .sources.reader import read_parquet_clean

        pages = read_parquet_clean(args.pages)
        if args.limit:
            pages = pages.limit(args.limit)
        written = write_kg(build_kg(pages, cfg), args.out)

    print(
        f"wrote {written['n_triples']} triples to {written['triples_dir']}",
        file=sys.stderr,
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
