"""Set-up cost of one workload, measured inside a fresh process.

    python3 perfbench/setup_probe.py [CONFIG.ini]

Times importing axistokes, reading the configuration, and building the
mesh(es), their FemSpace and ``space.operators()``: the work a run pays
before its first mode, whatever its wavenumbers.  Without a config it
builds the meshes ``axistokes verify`` uses by default.  Prints the
seconds and the path of the imported package.
"""

import sys
import time


def main(argv) -> int:
    started = time.perf_counter()
    import axistokes
    import axistokes.cli as cli
    from axistokes import DomainSpec, FemSpace, generate_structured, mesh_from_spec

    if argv:
        config = cli.load_config(argv[0])
        meshes = [mesh_from_spec(config.domain)]
    else:
        # cmd_verify's two domains and the mesh of its solver cross-checks.
        meshes = [
            generate_structured((1.0, 1.0), 0.25),
            mesh_from_spec(DomainSpec(polygon=cli.L_SHAPE, target_h=0.5)),
            generate_structured((1.0, 1.0), 0.125),
        ]
    for mesh in meshes:
        FemSpace(mesh).operators()
    print(time.perf_counter() - started, axistokes.__file__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
