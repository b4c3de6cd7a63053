"""One ``progressive`` round of library calls, without the benchmark's checks.

    python3 perfbench/rss_probe.py INPUT.s3dv MODEL.s3dm RANK K,K,...

It fits at RANK, writes the model, reads, reconstructs and scores every
level, and sweeps s3dsvd at the given ranks.  Nothing else runs in this
process, so its peak resident set is that of the interpreter, numpy and
volrank's own calls on the input.
"""

import sys

from volrank import cli, metrics, s3dsvd, volume_io


def main(argv):
    input_path, model_path, rank, ks = argv
    rank = int(rank)
    x = volume_io.read_volume(input_path)
    model = s3dsvd.decompose(x, rank)
    volume_io.write_model(model_path, model)
    for j in range(1, rank + 1):
        xj = s3dsvd.reconstruct(volume_io.read_model(model_path, level=j), j)
        metrics.psnr(x, xj), metrics.mse(x, xj), metrics.rel_err(x, xj), metrics.per(model, j)
    cli.run_sweep(x, ["s3dsvd"], [int(k) for k in ks.split(",")])


if __name__ == "__main__":
    main(sys.argv[1:])
