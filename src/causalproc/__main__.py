"""Process entry of ``python -m causalproc`` and the ``causalproc`` script.

Both call ``main``, which runs ``cli.main`` on ``sys.argv`` and returns its
exit code, under one fixed policy for the cyclic garbage collector. The
collector is paused while ``main`` imports ``cli``, and with it numpy and the
package; everything loaded is then frozen (``gc.freeze``) and the collector
switched back on, so the command runs with it but no collection rescans the
start-up objects. Before the process exits with the command's code,
everything is frozen again, so the interpreter's teardown collections skip
objects that would only be freed with the process. Importing this module or
``causalproc.cli``, or calling ``cli.main(argv)`` in-process, leaves the
collector alone. The installed script imports this module and calls
``main``; ``python -m causalproc`` runs it as ``__main__``.
"""

import gc
import sys


def main() -> int:
    gc.disable()
    from causalproc import cli  # loaded with the collector paused

    gc.freeze()
    gc.enable()
    try:
        return cli.main()
    finally:  # argparse's usage errors and --help leave by SystemExit
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
