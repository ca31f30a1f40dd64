"""``python -m repro.apps.lulesh``: the driver CLI (see ``driver.main``)."""

from .driver import main

if __name__ == "__main__":
    raise SystemExit(main())
