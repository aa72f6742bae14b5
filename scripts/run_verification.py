#!/usr/bin/env python3
"""Run the verification suite and save the machine-readable report.

    python scripts/run_verification.py [report.json]
"""

import sys

from optoweak.cli import main as cli_main

if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "verify_report.json"
    sys.exit(cli_main(["verify", "--out", out]))
