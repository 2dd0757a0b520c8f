"""Command-line entry point: sim, run, eval, obs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import os
import sys

import click
import numpy as np

from .config import ConfigError, load_config
from .evalkit import (associate, evaluate, load_tum, summarize_observability,
                      write_errors_csv, write_eval_csv, write_obs_summary_csv)
from .observability import ObservabilityLog, assess, load_observability_csv
from .pipeline import DatasetError, run_pipeline
from .pointcloud import load_csv
from .simworld import PRESET_NAMES, generate_dataset, make_preset


@click.group()
def cli():
    """Lidar-inertial odometry pipeline: simulate, run, evaluate."""


@cli.command("sim")
@click.option("--preset", type=click.Choice(PRESET_NAMES), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
def cmd_sim(preset, seed, out_dir):
    """Generate a deterministic synthetic dataset."""
    generate_dataset(make_preset(preset, seed), seed, out_dir)
    click.echo(f"dataset written to {out_dir}")


@cli.command("run")
@click.argument("dataset", type=click.Path(exists=True, file_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--supervisor", type=click.Choice(["on", "off"]), default="on",
              show_default=True)
def cmd_run(dataset, config_path, out_dir, supervisor):
    """Run the full pipeline on a dataset directory."""
    run_pipeline(dataset, load_config(config_path), out_dir,
                 supervisor_on=(supervisor == "on"))
    click.echo(f"outputs written to {out_dir}")


@cli.command("eval")
@click.argument("est", type=click.Path(exists=True, dir_okay=False))
@click.argument("gt", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--align", type=click.Choice(["none", "rigid-start"]),
              default="rigid-start", show_default=True)
@click.option("--max-dt", type=float, default=0.02, show_default=True)
def cmd_eval(est, gt, out_dir, align, max_dt):
    """Evaluate an estimated trajectory against ground truth (TUM files)."""
    os.makedirs(out_dir, exist_ok=True)
    ev = evaluate(associate(load_tum(est), load_tum(gt), max_dt), align)
    write_eval_csv(ev, os.path.join(out_dir, "eval.csv"))
    write_errors_csv(ev, os.path.join(out_dir, "errors.csv"))
    click.echo(f"t(m)={ev.rmse_position:.3f} t(%)={ev.percent_drift:.2f} "
               f"R(rad)={ev.rmse_attitude:.3f}")


@cli.command("obs")
@click.argument("dataset", type=click.Path(exists=True, file_okay=False))
@click.option("--threshold", type=float, default=None,
              help="Override the config's observability.threshold.")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True))
def cmd_obs(dataset, threshold, out_dir, config_path):
    """Observability trace over a dataset's scans."""
    from .pipeline import _preprocess, load_dataset
    cfg = load_config(config_path)
    if threshold is None:
        threshold = cfg.observability.threshold
    scans, _, _ = load_dataset(dataset)
    os.makedirs(out_dir, exist_ok=True)
    log = ObservabilityLog()
    for path in scans:
        cloud = _preprocess(load_csv(path), cfg)
        if cloud is not None:
            log.add(assess(cloud, threshold))
    log.write(os.path.join(out_dir, "observability.csv"))
    segs = summarize_observability(
        load_observability_csv(os.path.join(out_dir, "observability.csv")),
        threshold)
    write_obs_summary_csv(segs, os.path.join(out_dir, "obs_summary.csv"))
    click.echo(f"observability trace written to {out_dir}")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Abort:
        return 1
    except click.ClickException as e:
        e.show()
        return 1
    # LinAlgError is a ValueError, so the numerical clause comes first
    except (np.linalg.LinAlgError, ArithmeticError) as e:
        click.echo(f"numerical failure: {e}", err=True)
        return 3
    except (DatasetError, ConfigError, FileNotFoundError, ValueError) as e:
        click.echo(f"data error: {e}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
