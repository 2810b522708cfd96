"""Pinned random streams: a few rows of every sampler at a fixed seed.

Each family's values_at, companion, hidden and visible rows and its
levy_functional_mc estimate are compared with literals recorded from the
samplers. rtol=1e-12 absorbs last-bit libm differences between machines,
but not a draw taken in another order or an extra draw.
"""

import numpy as np
import pytest

from levyid.core import (
    ConvSpec,
    ExpDecayKernel,
    IndicatorKernel,
    JumpLaw,
    JumpLawSpec,
    LevyFunctionalPanel,
    PanelEntry,
    PoissonSpec,
    SatoSpec,
    TemperedStableSpec,
)
from levyid.identities import companion_values, hidden_values, visible_values
from levyid.levymeasure import levy_functional_mc
from levyid.processes import values_at
from levyid.randkit import RngStream

FAMILIES = {
    "poisson": PoissonSpec(1.3),
    "tempered-stable": TemperedStableSpec(0.6),
    "sato": SatoSpec(0.8, JumpLawSpec(1.5, JumpLaw.gamma(2.0, 1.5))),
    "conv-jump": ConvSpec(ExpDecayKernel(0.9),
                          JumpLawSpec(2.0, JumpLaw.discrete(((0.5, 0.3), (2.0, 0.7))))),
    "conv-ts": ConvSpec(IndicatorKernel(1.0), TemperedStableSpec(0.5)),
}
POINTS = (0.5, 1.0, 2.0)
A = 1.0
ROWS = 4
ENTRY = PanelEntry((0.7, 0.9), (0.5, 2.0))

PINNED = {
    "poisson": {
        "values_at": [
            [0.0, 1.0, 1.0],
            [2.0, 2.0, 4.0],
            [0.0, 1.0, 2.0],
            [1.0, 1.0, 3.0],
        ],
        "companion_values": [
            [1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0],
            [0.0, 1.0, 1.0],
        ],
        "hidden_values": [
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
        ],
        "visible_values": [
            [1.0, 2.0, 2.0],
            [0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0],
            [1.0, 2.0, 2.0],
        ],
        "levy_functional_mc": [1.6684803815775142, 0.18048784161369977],  # value, se
    },
    "tempered-stable": {
        "values_at": [
            [0.34756808909780557, 0.4392785928056265, 0.7666758247416439],
            [0.05222177234938821, 0.3398643034749874, 1.0860003422473792],
            [0.3349928461514477, 0.5218056463529908, 1.2708376492843412],
            [0.49761725513908883, 0.6416285003069369, 0.9505078565799066],
        ],
        "companion_values": [
            [0.003800101339159956, 0.003800101339159956, 0.003800101339159956],
            [0.0, 0.8581865236950554, 0.8581865236950554],
            [0.0, 0.6334395221779563, 0.6334395221779563],
            [1.2851250737086604, 1.2851250737086604, 1.2851250737086604],
        ],
        "hidden_values": [
            [0.0, 0.0, 0.19689283943958785],
            [0.0, 0.0, 0.3809427245177729],
            [0.0, 0.0, 0.5718662197968265],
            [0.0, 0.0, 0.39597800311843345],
        ],
        "visible_values": [
            [0.11199881225296097, 0.31389805137870525, 0.31389805137870525],
            [0.18414757239472562, 0.32243701238280803, 0.32243701238280803],
            [0.23333930869853747, 0.3628950241260698, 0.3628950241260698],
            [0.24437727400310644, 1.9142045966275474, 1.9142045966275474],
        ],
        "levy_functional_mc": [1.0259128900729186, 0.10440110429759172],  # value, se
    },
    "sato": {
        "values_at": [
            [0.07252208732483949, 0.751847840061409, 0.751847840061409],
            [0.7505953213222103, 1.9603977597845268, 4.628292464631362],
            [1.4993644522376213, 2.4326297363558806, 2.4326297363558806],
            [1.373562351267121, 1.373562351267121, 1.373562351267121],
        ],
        "companion_values": [
            [0.5084151917506218, 0.5084151917506218, 0.5084151917506218],
            [0.4457052183373844, 0.4457052183373844, 0.4457052183373844],
            [0.0, 0.5851309234794819, 0.5851309234794819],
            [0.0, 0.25577619315075645, 0.25577619315075645],
        ],
        "hidden_values": [
            [0.0, 0.0, 2.4678384715443493],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 1.9719179743439263],
            [0.0, 0.0, 1.050446463429817],
        ],
        "visible_values": [
            [0.3367181910400594, 0.3367181910400594, 0.3367181910400594],
            [0.24091922332456958, 1.072008204210245, 1.072008204210245],
            [0.8036211137454534, 3.677593019505667, 3.677593019505667],
            [0.6056021869495035, 1.3721150558515822, 1.3721150558515822],
        ],
        "levy_functional_mc": [2.262523247695812, 0.15847422767436395],  # value, se
    },
    "conv-jump": {
        "values_at": [
            [2.8831709482181447, 1.838390962521931, 3.1183483127841516],
            [0.0, 1.8818472732080749, 4.165797594214695],
            [0.0, 0.0, 1.2452443971850016],
            [0.0, 0.0, 2.297573104556718],
        ],
        "companion_values": [
            [1.3431038315089339, 0.8564008135211632, 0.3481865873548716],
            [0.0, 1.6397460180498287, 0.6666709806195211],
            [0.0, 1.7806526438748067, 0.7239593395363784],
            [1.6657095511993365, 1.0621033022699664, 0.431818978213267],
        ],
        "hidden_values": [
            [0.0, 0.0, 5.093054957236507],
            [0.0, 0.0, 1.4623422122060994],
            [0.0, 0.0, 3.3361212894024455],
            [0.0, 0.0, 2.0996164664449903],
        ],
        "visible_values": [
            [0.0, 0.0, 0.0],
            [0.0, 1.82360662586129, 0.7414231253771266],
            [0.49097372782689636, 0.673515421037722, 0.27383093556135296],
            [1.8525740969913955, 4.570003165643182, 1.858024632069009],
        ],
        "levy_functional_mc": [2.01735368877589, 0.14198805639405412],  # value, se
    },
    "conv-ts": {
        "values_at": [
            [0.8575931405330603, 0.8886212544227676, 0.3062777566650911],
            [0.18836441061655837, 0.28345566410880785, 0.28584021945524357],
            [0.605678917168742, 0.6397413483365556, 0.809443434473863],
            [0.23858691716622607, 0.40088229367780615, 0.116558004079991],
        ],
        "companion_values": [
            [0.0, 0.6627246441728045, 0.0],
            [0.0, 0.1023822905813862, 0.0],
            [0.0, 1.6076252875616648, 0.0],
            [1.0934997796740664, 1.0934997796740664, 0.0],
        ],
        "hidden_values": [
            [0.0, 0.0, 0.27344303603554637],
            [0.0, 0.0, 0.1410515269258058],
            [0.0, 0.0, 0.52560135976923],
            [0.0, 0.0, 0.7746057316398584],
        ],
        "visible_values": [
            [0.5845478260503474, 1.1924720818884926, 0.0],
            [0.02963422317008264, 0.23070043135541587, 0.0],
            [0.37368001888878, 0.47061634318839524, 0.0],
            [0.022564435498004413, 0.05294505072942994, 0.0],
        ],
        "levy_functional_mc": [0.6387095305168486, 0.056450978307782396],  # value, se
    },
}


def _draws(index, spec):
    rng = RngStream(777).substream(index)
    (mc,) = levy_functional_mc(rng.substream(4), spec, LevyFunctionalPanel((ENTRY,)), 200)
    return {
        "values_at": values_at(rng.substream(0), spec, POINTS, ROWS),
        "companion_values": companion_values(rng.substream(1), spec, A, POINTS, ROWS),
        "hidden_values": hidden_values(rng.substream(2), spec, A, POINTS, ROWS),
        "visible_values": visible_values(rng.substream(3), spec, A, POINTS, ROWS),
        "levy_functional_mc": [mc.value, mc.se],
    }


@pytest.mark.parametrize("family", list(FAMILIES))
def test_pinned_streams(family):
    got = _draws(list(FAMILIES).index(family), FAMILIES[family])
    for key, want in PINNED[family].items():
        np.testing.assert_allclose(got[key], want, rtol=1e-12, atol=0, err_msg=key)
