"""A fresh process imports the package and refines without loading scipy.

scipy is needed only by transfer and keypoint code, which import it where
they call it. Each test runs in a new interpreter, so modules that other
tests loaded cannot hide an import.
"""

import json
import subprocess
import sys
from pathlib import Path

import keycontact

_SRC = str(Path(keycontact.__file__).resolve().parents[1])

_TRIAL = """
import sys
sys.path.insert(0, sys.argv[1])
import keycontact, keycontact.cli, keycontact.sim, keycontact.refiner, keycontact.transfer
from keycontact.sim import CampaignConfig, make_peg_hole_scene, run_campaign

make_peg_hole_scene("round", 0.002, 0.006, seed=0)
cfg = CampaignConfig(profiles=("round",), trials=1, n_contacts=2, selection="ig", particles=100)
rows, _ = run_campaign(cfg, log=None)
print(len(rows), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

# scipy made unimportable, as in an environment without it
_REFINE_WITHOUT_SCIPY = """
import sys
sys.path.insert(0, sys.argv[1])


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None


sys.meta_path.insert(0, NoScipy())
from keycontact.cli import main

sys.exit(main(sys.argv[2:]))
"""


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", script, _SRC, *args], capture_output=True, text=True,
                          timeout=120)


def test_an_ig_campaign_trial_loads_no_scipy_module():
    proc = _run(_TRIAL)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "[]"]


def test_cli_refine_runs_where_scipy_cannot_be_imported(tmp_path):
    out = tmp_path / "refined.json"
    proc = _run(_REFINE_WITHOUT_SCIPY, "refine", "--contacts", "2", "--particles", "100", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(out.read_text())) >= {"estimate", "lateral_error"}
