"""Golden-behaviour pin for the paper's simulators (``SKnO``, ``SID``, ``Nn``).

Every case below runs one simulator to stability (or to the step cap) with a
full trace and pins what the run produced: the sha256 of ``repr`` of the
final configuration, the step count, the omission count, and the sha256 of
the ``extract_events`` / ``extract_matching`` output.  Any change to a
transition, a tie-break or the token order shows up here as a changed
digest, so an optimisation of the simulators must leave this table alone.

The exact ``repr`` of every simulator state and token type is pinned too:
``SKnO`` breaks ties and orders its ``owed`` multiset by ``repr``.

The grid covers what the campaign benchmark pins do not: the ``I4``
variant of ``SKnO``, the ring-graph scheduler under both adversaries, and
event/matching extraction.

Regenerate the table (only for a change that is *meant* to alter
simulator behaviour) with::

    PYTHONPATH=src python tests/test_simulator_golden.py
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, NamedTuple, Tuple

import pytest

from repro.adversary.omission import BoundedOmissionAdversary, UOAdversary
from repro.core.naming import KnownSizeSimulator, KnownSizeState, NamingState
from repro.core.sid import SIDSimulator, SIDState
from repro.core.skno import ChangeToken, JokerToken, SKnOSimulator, SKnOState, StateToken
from repro.engine.convergence import run_until_stable
from repro.engine.engine import SimulationEngine
from repro.interaction.models import get_model
from repro.protocols.catalog.majority import ExactMajorityProtocol
from repro.scheduling.graph_scheduler import ring_scheduler
from repro.scheduling.scheduler import RandomScheduler

MAX_STEPS = 1_500
WINDOW = 60
SEEDS = (0, 1, 2)
POPULATIONS = (4, 6)
SCHEDULERS = {"random": RandomScheduler, "ring": ring_scheduler}

protocol = ExactMajorityProtocol()


class Case(NamedTuple):
    simulator: str
    model: str
    bound: int
    scheduler: str
    adversary: str
    n: int
    seed: int

    @property
    def id(self) -> str:
        return "-".join(map(str, self))


def _cases() -> Iterator[Case]:
    for n in POPULATIONS:
        for seed in SEEDS:
            for scheduler in SCHEDULERS:
                for variant in ("I3", "I4"):
                    for bound in (0, 1, 2):
                        for adversary in ("bounded", "uo"):
                            yield Case("skno", variant, bound, scheduler, adversary, n, seed)
                yield Case("sid", "IO", 0, scheduler, "none", n, seed)
                yield Case("nn", "IO", 0, scheduler, "none", n, seed)


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def run_case(case: Case) -> Tuple[str, int, int, str]:
    """Execute ``case`` and return ``(final_sha, steps, omissions, events_sha)``."""
    model = get_model(case.model)
    n = case.n
    p_config = protocol.initial_configuration(n // 2 + 1, n - n // 2 - 1)
    adversary = None
    if case.simulator == "skno":
        simulator = SKnOSimulator(protocol, omission_bound=case.bound, variant=case.model)
        if case.adversary == "bounded":
            adversary = BoundedOmissionAdversary(
                model, max_omissions=case.bound, seed=case.seed + 100)
        else:
            adversary = UOAdversary(model, seed=case.seed + 100)
    elif case.simulator == "sid":
        simulator = SIDSimulator(protocol)
    else:
        simulator = KnownSizeSimulator(protocol, population_size=n)
    scheduler = SCHEDULERS[case.scheduler](n, seed=case.seed)
    engine = SimulationEngine(simulator, model, scheduler, adversary=adversary)
    config = simulator.initial_configuration(p_config)
    project = simulator.project
    predicate = lambda c: all(protocol.output(project(s)) == "A" for s in c)
    result = run_until_stable(engine, config, predicate, max_steps=MAX_STEPS,
                              stability_window=WINDOW)
    matching = simulator.extract_matching(result.trace)
    extracted = (simulator.extract_events(result.trace), matching.events,
                 matching.pairs, matching.unmatched)
    return (_digest(result.final_configuration), result.steps_executed,
            result.omissions, _digest(extracted))


GOLDEN: Dict[str, Tuple[str, int, int, str]] = {
    'skno-I3-0-random-bounded-4-0': ('7f14b1e9ac95363f', 69, 0, '2c5e6f83318b55d3'),
    'skno-I3-0-random-uo-4-0': ('eeb59160cbf8702e', 71, 11, 'fa022dd3c707031b'),
    'skno-I3-1-random-bounded-4-0': ('6182c91a612c6827', 85, 1, '900951bda46896b8'),
    'skno-I3-1-random-uo-4-0': ('043b2600ab602632', 75, 13, '198518046b0a8ec9'),
    'skno-I3-2-random-bounded-4-0': ('22d17283dcd1bf0e', 97, 2, '9dcedd52b77e9c23'),
    'skno-I3-2-random-uo-4-0': ('db40a372408b8ea4', 101, 22, 'd3493ab2dce2ff80'),
    'skno-I4-0-random-bounded-4-0': ('7f14b1e9ac95363f', 69, 0, '2c5e6f83318b55d3'),
    'skno-I4-0-random-uo-4-0': ('bcecb7a5cc6433a3', 103, 23, 'cbb08e5eb97f36ce'),
    'skno-I4-1-random-bounded-4-0': ('6d96d6bf815a4938', 88, 1, 'bf0e4cc7bed06826'),
    'skno-I4-1-random-uo-4-0': ('92c2478fab416d9e', 1500, 272, 'cf4a595ce741ec27'),
    'skno-I4-2-random-bounded-4-0': ('215ce0899cab28b7', 97, 2, 'b9e0a6b3e1ebf46d'),
    'skno-I4-2-random-uo-4-0': ('5e07480c3791af01', 79, 15, 'c6e20ca52d569f7b'),
    'sid-IO-0-random-none-4-0': ('397df24d0cb3583c', 141, 0, '4d17cffc3fe92d9b'),
    'nn-IO-0-random-none-4-0': ('5851ef8b6da22d36', 187, 0, '91725c1e68250d7b'),
    'skno-I3-0-ring-bounded-4-0': ('01e82e0d7b0e5849', 94, 0, '3ccf926cc29fba3c'),
    'skno-I3-0-ring-uo-4-0': ('fdfadb35879603d4', 92, 20, '56a7589e58e785fa'),
    'skno-I3-1-ring-bounded-4-0': ('5b28e6be63eed0a8', 285, 1, '6c53657efc39ae76'),
    'skno-I3-1-ring-uo-4-0': ('98a47368cb93fb6c', 191, 48, 'c147b55fb0ffe30d'),
    'skno-I3-2-ring-bounded-4-0': ('c92a99cc31098f9f', 765, 2, 'c3fcaea396b4e29c'),
    'skno-I3-2-ring-uo-4-0': ('02eb27f5333a53c0', 342, 68, '40e2813abd0446dc'),
    'skno-I4-0-ring-bounded-4-0': ('01e82e0d7b0e5849', 94, 0, '3ccf926cc29fba3c'),
    'skno-I4-0-ring-uo-4-0': ('57bda7c06d72ee89', 72, 11, 'fc14b1cd4023bf3b'),
    'skno-I4-1-ring-bounded-4-0': ('1c227243fd80423d', 131, 1, '5332bb2b464cca47'),
    'skno-I4-1-ring-uo-4-0': ('b8235853f32ee62b', 89, 19, 'ad8eef5fdeef1f8f'),
    'skno-I4-2-ring-bounded-4-0': ('6304257914db17e2', 402, 2, '500d12d8dc0b8f72'),
    'skno-I4-2-ring-uo-4-0': ('97efaaba0eeb9f58', 119, 30, 'a01b84847dac08ad'),
    'sid-IO-0-ring-none-4-0': ('674f6dec633638aa', 115, 0, '62fe917c32316925'),
    'nn-IO-0-ring-none-4-0': ('d76ce782648c5139', 1500, 0, 'd125b4d76de8b430'),
    'skno-I3-0-random-bounded-4-1': ('45f7c916535aa5ac', 113, 0, '72a6326d350c4e4e'),
    'skno-I3-0-random-uo-4-1': ('1d3fa31b730b272b', 125, 28, 'bc9c3b0a17db02da'),
    'skno-I3-1-random-bounded-4-1': ('d30efc0c6d389094', 544, 1, '722b3ea328720bca'),
    'skno-I3-1-random-uo-4-1': ('f5a24a1a0ccc8e3a', 381, 84, '51bde05f388236cd'),
    'skno-I3-2-random-bounded-4-1': ('6cb0afe5f4ef356c', 689, 2, 'eb5a5e07ad52662b'),
    'skno-I3-2-random-uo-4-1': ('1e7501bacde65119', 155, 34, '69450e0ca0457098'),
    'skno-I4-0-random-bounded-4-1': ('45f7c916535aa5ac', 113, 0, '72a6326d350c4e4e'),
    'skno-I4-0-random-uo-4-1': ('b617804bfeb2ffb1', 326, 72, 'af118f9fda6b18ee'),
    'skno-I4-1-random-bounded-4-1': ('9c9cce03f8c6eeed', 408, 1, '47fb303f93de2376'),
    'skno-I4-1-random-uo-4-1': ('0c0246b8f8235c57', 214, 42, 'd95b0cd1bb0777e7'),
    'skno-I4-2-random-bounded-4-1': ('a42a59302728a163', 368, 2, '4ed7fa08e63420f8'),
    'skno-I4-2-random-uo-4-1': ('24a314b3dc44fef2', 456, 98, 'ec0f9a671318fa95'),
    'sid-IO-0-random-none-4-1': ('dca5a4b9cb15b8c9', 90, 0, '8cb9e8dcf89b4216'),
    'nn-IO-0-random-none-4-1': ('bf06abcfdaa601fc', 166, 0, '5efdaf0bbb5f28be'),
    'skno-I3-0-ring-bounded-4-1': ('b78b5608a12addae', 94, 0, '6ea40d4224121fa2'),
    'skno-I3-0-ring-uo-4-1': ('967bdb8f6ac7f303', 275, 56, '548b15a07bf0a0f9'),
    'skno-I3-1-ring-bounded-4-1': ('3ab5b4bd8a1038f0', 262, 1, 'e2b93dfedbb273d0'),
    'skno-I3-1-ring-uo-4-1': ('a946fa08accb9480', 1500, 297, '23dbe0f47fc365d1'),
    'skno-I3-2-ring-bounded-4-1': ('c340e17994e3a446', 724, 2, '57582a2c455f572b'),
    'skno-I3-2-ring-uo-4-1': ('206e29b7988988af', 823, 156, '27e11f414b571ba1'),
    'skno-I4-0-ring-bounded-4-1': ('b78b5608a12addae', 94, 0, '6ea40d4224121fa2'),
    'skno-I4-0-ring-uo-4-1': ('ddcb5b6d46679c46', 997, 192, '055683de91960c7d'),
    'skno-I4-1-ring-bounded-4-1': ('6c4f88f7f22c4318', 212, 1, '772dadb1465ea55d'),
    'skno-I4-1-ring-uo-4-1': ('264670ed0e01e55a', 317, 69, '784bb7f3f1be4e03'),
    'skno-I4-2-ring-bounded-4-1': ('fdb4b91c61fce148', 305, 2, 'be490225ff51651f'),
    'skno-I4-2-ring-uo-4-1': ('c0d007cc54ed9c8d', 1500, 297, '071f6472c708e529'),
    'sid-IO-0-ring-none-4-1': ('e26ab629bf6cca45', 197, 0, '821d7ba63a09c3f3'),
    'nn-IO-0-ring-none-4-1': ('d76ce782648c5139', 1500, 0, 'd125b4d76de8b430'),
    'skno-I3-0-random-bounded-4-2': ('4d9f06348b60b563', 100, 0, 'bbe4838ea619bbe8'),
    'skno-I3-0-random-uo-4-2': ('ad57d9e58716fd7f', 72, 14, '3b3a120b360e2ded'),
    'skno-I3-1-random-bounded-4-2': ('93ce1334fc73fb57', 409, 1, '3bf76961242857cb'),
    'skno-I3-1-random-uo-4-2': ('3c5febcdceb32e4a', 132, 23, '98cabdbf370fb613'),
    'skno-I3-2-random-bounded-4-2': ('417e14eb7bc254a6', 671, 2, '3b2ee95066a757ae'),
    'skno-I3-2-random-uo-4-2': ('33d184cd6d589377', 126, 23, '0f5658cf085e8975'),
    'skno-I4-0-random-bounded-4-2': ('4d9f06348b60b563', 100, 0, 'bbe4838ea619bbe8'),
    'skno-I4-0-random-uo-4-2': ('d543def8733cd01c', 80, 15, '270fe391d451fcd3'),
    'skno-I4-1-random-bounded-4-2': ('f8c26fa5e75aaa44', 119, 1, '15ff56d208b94d88'),
    'skno-I4-1-random-uo-4-2': ('03779d24cef9c485', 446, 80, '7d48addf331de0b5'),
    'skno-I4-2-random-bounded-4-2': ('3afbca1a50b1b33a', 505, 2, '74641ecd53ad3107'),
    'skno-I4-2-random-uo-4-2': ('dfd22ed03e2a3d25', 447, 80, '2532368f704e690f'),
    'sid-IO-0-random-none-4-2': ('84d4600bd8306163', 343, 0, '72927ce3e502eb80'),
    'nn-IO-0-random-none-4-2': ('06a8d24daa073011', 218, 0, 'd74f6853e430bb23'),
    'skno-I3-0-ring-bounded-4-2': ('cedacce873b33abc', 117, 0, 'c3ca133ac2dce0af'),
    'skno-I3-0-ring-uo-4-2': ('594a323b48b60f58', 388, 69, '7baf3c5da15294ff'),
    'skno-I3-1-ring-bounded-4-2': ('9fa75be05e3f9d86', 158, 1, '243f65c93475d5d7'),
    'skno-I3-1-ring-uo-4-2': ('1e0b99c66ae24627', 1404, 275, '113b0d7fd50a67ad'),
    'skno-I3-2-ring-bounded-4-2': ('4a4c5ee3a7e794a1', 204, 2, 'd624d85b8ae72840'),
    'skno-I3-2-ring-uo-4-2': ('6437a56e09167afe', 207, 40, '9936df2721e7436f'),
    'skno-I4-0-ring-bounded-4-2': ('cedacce873b33abc', 117, 0, 'c3ca133ac2dce0af'),
    'skno-I4-0-ring-uo-4-2': ('81b7a316581f16ef', 144, 27, '2cf42a41621577b8'),
    'skno-I4-1-ring-bounded-4-2': ('40288c93b18a00db', 152, 1, 'd81700ca5a52f1a4'),
    'skno-I4-1-ring-uo-4-2': ('dd581543e0a20381', 416, 74, '91d36d642f4aa375'),
    'skno-I4-2-ring-bounded-4-2': ('d1db468d54aada31', 286, 2, '6f6f0210d8effa6f'),
    'skno-I4-2-ring-uo-4-2': ('2c05f091a85734e0', 259, 49, '949a2812b1e2a86b'),
    'sid-IO-0-ring-none-4-2': ('45561d13157bfb60', 199, 0, '91bffb87bde286c5'),
    'nn-IO-0-ring-none-4-2': ('0453367b5dd3a15d', 1500, 0, 'd125b4d76de8b430'),
    'skno-I3-0-random-bounded-6-0': ('1b67aaa6df4a7849', 184, 0, '9bdc04c701ad102d'),
    'skno-I3-0-random-uo-6-0': ('685260ab797032df', 709, 136, '0577cdb3eb4f24b7'),
    'skno-I3-1-random-bounded-6-0': ('77ad18c49fbcc1ce', 1054, 1, '78ea7015cd49e52e'),
    'skno-I3-1-random-uo-6-0': ('efcf9aa4c7dba294', 1111, 215, '97c557c86ed9db34'),
    'skno-I3-2-random-bounded-6-0': ('b9c9d1252a46aaae', 1116, 2, 'f3f25edb774dd249'),
    'skno-I3-2-random-uo-6-0': ('c423c24d35c594d2', 733, 144, 'ce440ce5505cabbb'),
    'skno-I4-0-random-bounded-6-0': ('1b67aaa6df4a7849', 184, 0, '9bdc04c701ad102d'),
    'skno-I4-0-random-uo-6-0': ('adee8366cc58fc40', 186, 45, '93908cc07e0f7e1a'),
    'skno-I4-1-random-bounded-6-0': ('d003479d2ed36d21', 351, 1, 'f4b1a4603f28e9fa'),
    'skno-I4-1-random-uo-6-0': ('66ea6e6cf6a28ce5', 564, 110, '38238017e359ecde'),
    'skno-I4-2-random-bounded-6-0': ('f010cf14ab7acef6', 591, 2, '9f44290e35bee878'),
    'skno-I4-2-random-uo-6-0': ('354dd6d5de6baf42', 1500, 275, '33f109c9b3ec3600'),
    'sid-IO-0-random-none-6-0': ('04c369a749a5fe08', 658, 0, '7617b6ce6150cd11'),
    'nn-IO-0-random-none-6-0': ('bffb06ce6c764c82', 693, 0, '46502283157523dc'),
    'skno-I3-0-ring-bounded-6-0': ('dbda648fdd311160', 509, 0, '07700828ab769107'),
    'skno-I3-0-ring-uo-6-0': ('f9d795e60ee7d9e5', 1500, 275, '928a5d71f416c974'),
    'skno-I3-1-ring-bounded-6-0': ('6b80507a9fdfb168', 1252, 1, '7601b30a4afbe546'),
    'skno-I3-1-ring-uo-6-0': ('ba6e7af24a294b39', 1500, 275, '11faedffe6e71990'),
    'skno-I3-2-ring-bounded-6-0': ('083acecfb35fc63e', 1500, 2, '84e3574dea081e7f'),
    'skno-I3-2-ring-uo-6-0': ('54912e3f7db842af', 1500, 275, 'c6078ca0fe8a2588'),
    'skno-I4-0-ring-bounded-6-0': ('dbda648fdd311160', 509, 0, '07700828ab769107'),
    'skno-I4-0-ring-uo-6-0': ('4c70a3ed4a4baae4', 1500, 275, 'fb7b358ddbbb12ab'),
    'skno-I4-1-ring-bounded-6-0': ('429c1208aa73050e', 1500, 1, '4f573a548421f5d7'),
    'skno-I4-1-ring-uo-6-0': ('9511a54d52bcce9e', 1500, 275, '09a1a260e68d2b2e'),
    'skno-I4-2-ring-bounded-6-0': ('8b446606820175a4', 1500, 2, '8d9889eeaaebc94b'),
    'skno-I4-2-ring-uo-6-0': ('af92c8ce71d8fb90', 1500, 275, '27dad2005873e612'),
    'sid-IO-0-ring-none-6-0': ('9428edecb49c6c0f', 1500, 0, '0bb1029968b95591'),
    'nn-IO-0-ring-none-6-0': ('dfa12b2e5e220d80', 1500, 0, 'd125b4d76de8b430'),
    'skno-I3-0-random-bounded-6-1': ('a7486492a5182a69', 154, 0, '49782480ce88e182'),
    'skno-I3-0-random-uo-6-1': ('d899bc9ff4b3c278', 1500, 290, '8f9b3ccbf57461ac'),
    'skno-I3-1-random-bounded-6-1': ('6d4420e253718c4a', 1500, 1, '9f53138dfa555408'),
    'skno-I3-1-random-uo-6-1': ('9cb62baa121752a9', 1500, 290, 'b1c6d63927715ee2'),
    'skno-I3-2-random-bounded-6-1': ('afb1f8eb3a34de9e', 1500, 2, '766a4e929abbca3a'),
    'skno-I3-2-random-uo-6-1': ('e124bc6a63c4be10', 894, 168, '57583a8795fbbc47'),
    'skno-I4-0-random-bounded-6-1': ('a7486492a5182a69', 154, 0, '49782480ce88e182'),
    'skno-I4-0-random-uo-6-1': ('5a814d44054ffcb7', 246, 55, 'fc0c0bb32081cee6'),
    'skno-I4-1-random-bounded-6-1': ('c817d654aafce6ed', 1130, 1, 'c50a4069ea2d8ebc'),
    'skno-I4-1-random-uo-6-1': ('2ed486a72d215e38', 876, 164, '66f379099f0c6c9f'),
    'skno-I4-2-random-bounded-6-1': ('baa5e4c9b8cbdd49', 1354, 2, '2d847ca7e2d26241'),
    'skno-I4-2-random-uo-6-1': ('241d6dc1f3a9c002', 218, 47, 'bb5619cc1f572891'),
    'sid-IO-0-random-none-6-1': ('cfa4df9be8ff5c1d', 665, 0, 'fb4d0dc4d2ce790a'),
    'nn-IO-0-random-none-6-1': ('2a80585f951b14fa', 697, 0, '508206dababa4700'),
    'skno-I3-0-ring-bounded-6-1': ('53b7d8201241388c', 286, 0, 'd5c4d9ed0ea392e4'),
    'skno-I3-0-ring-uo-6-1': ('0907346e1b54169e', 1500, 290, '939bcb460a493c32'),
    'skno-I3-1-ring-bounded-6-1': ('f956b3221030ce08', 839, 1, '0c2af34cb3bee9f9'),
    'skno-I3-1-ring-uo-6-1': ('caf5ced95e694754', 1500, 290, '3087d191e4c0e827'),
    'skno-I3-2-ring-bounded-6-1': ('70e91359c8d83936', 1500, 2, '1983917b17788795'),
    'skno-I3-2-ring-uo-6-1': ('223b1a6ee86f0ef2', 1500, 290, '087030ef85c191d9'),
    'skno-I4-0-ring-bounded-6-1': ('53b7d8201241388c', 286, 0, 'd5c4d9ed0ea392e4'),
    'skno-I4-0-ring-uo-6-1': ('ba4b185e7eeeed98', 1500, 290, '786bac7263b750d1'),
    'skno-I4-1-ring-bounded-6-1': ('ad9b399f5737093d', 814, 1, 'bba2975b03cc0bcb'),
    'skno-I4-1-ring-uo-6-1': ('7be3e9e5947a8e0b', 1500, 290, '161e53afc1a6041d'),
    'skno-I4-2-ring-bounded-6-1': ('e05c165a0e812cbd', 1500, 2, '520de31b5d4e26e2'),
    'skno-I4-2-ring-uo-6-1': ('85d83dfc5836e321', 1500, 290, 'd3336e3ea5049d51'),
    'sid-IO-0-ring-none-6-1': ('32fbfdf2060f0fac', 1500, 0, 'd7f4cf178f36bd75'),
    'nn-IO-0-ring-none-6-1': ('dfa12b2e5e220d80', 1500, 0, 'd125b4d76de8b430'),
    'skno-I3-0-random-bounded-6-2': ('cfd190d05996d43d', 258, 0, 'b6f0fc3d0d6fd31e'),
    'skno-I3-0-random-uo-6-2': ('3d41b7a73847025b', 198, 42, '0b40b756851948d7'),
    'skno-I3-1-random-bounded-6-2': ('c4c1b65dfbd66326', 1227, 1, '842209fe2a48765a'),
    'skno-I3-1-random-uo-6-2': ('1746a9fb0fa7267f', 1500, 302, '07cb806e91929b6a'),
    'skno-I3-2-random-bounded-6-2': ('c18388af5e05afe8', 1500, 2, '26369312427d9450'),
    'skno-I3-2-random-uo-6-2': ('086ce65f7725349b', 1112, 231, '3dbab71c3217c991'),
    'skno-I4-0-random-bounded-6-2': ('cfd190d05996d43d', 258, 0, 'b6f0fc3d0d6fd31e'),
    'skno-I4-0-random-uo-6-2': ('97f8248bdc637df7', 305, 66, '5666fa6aa322320e'),
    'skno-I4-1-random-bounded-6-2': ('a3ecf03178931a6e', 816, 1, 'bb496699b9108a7a'),
    'skno-I4-1-random-uo-6-2': ('41e98a9569bfebb3', 313, 68, '361991fc1ebd5fab'),
    'skno-I4-2-random-bounded-6-2': ('239ac0b7339ea93a', 1500, 2, '6900e17318a92f1f'),
    'skno-I4-2-random-uo-6-2': ('bb3ddc90b8506f42', 1500, 302, '7f4b52c4926fea29'),
    'sid-IO-0-random-none-6-2': ('66cde8d93c3e4a1b', 223, 0, 'be5c772e2ec3adbe'),
    'nn-IO-0-random-none-6-2': ('c0d4a2a0388cafca', 441, 0, '5903400c3483eaa5'),
    'skno-I3-0-ring-bounded-6-2': ('b455ac48d5f4efa8', 574, 0, 'b1ea874ebe6637ca'),
    'skno-I3-0-ring-uo-6-2': ('dcd7432393a9cba2', 1500, 302, '702f1dd2337cd3c6'),
    'skno-I3-1-ring-bounded-6-2': ('d2e666d92f14a727', 1465, 1, 'ef1f785e0e1d03bd'),
    'skno-I3-1-ring-uo-6-2': ('0e34e5715d0cddf1', 1500, 302, 'fefd682bfac48d5a'),
    'skno-I3-2-ring-bounded-6-2': ('f41cad78ce6c2481', 1500, 2, 'd29d7d19050bc858'),
    'skno-I3-2-ring-uo-6-2': ('34f80e5137bec6be', 1016, 213, '84b30e7b868599de'),
    'skno-I4-0-ring-bounded-6-2': ('b455ac48d5f4efa8', 574, 0, 'b1ea874ebe6637ca'),
    'skno-I4-0-ring-uo-6-2': ('3e773334a1d0eb94', 1500, 302, '158f7afae1002c90'),
    'skno-I4-1-ring-bounded-6-2': ('4ee97f6b6eb82719', 976, 1, 'e3440213bfdbaa92'),
    'skno-I4-1-ring-uo-6-2': ('e3450d2754a63e03', 1500, 302, '9877f38900fb0896'),
    'skno-I4-2-ring-bounded-6-2': ('ae68eb41896ea2ba', 1500, 2, 'f064f357d24456d2'),
    'skno-I4-2-ring-uo-6-2': ('632bd81291525582', 1500, 302, '9e190f19b6117d6b'),
    'sid-IO-0-ring-none-6-2': ('6852b1c4b83e38dd', 1500, 0, '504d0064a300f8d0'),
    'nn-IO-0-ring-none-6-2': ('468b410d844b3b21', 1500, 0, 'd125b4d76de8b430'),
}


@pytest.mark.parametrize("case", list(_cases()), ids=lambda case: case.id)
def test_simulator_run_matches_golden(case):
    assert run_case(case) == GOLDEN[case.id]


def test_golden_table_covers_the_grid():
    assert sorted(GOLDEN) == sorted(case.id for case in _cases())


# The reprs below break ties between SKnO runs and order the owed multiset,
# so they are part of the determinism contract (docs/invariants.md).
REPRS = [
    (StateToken("p", 1), "StateToken(state='p', index=1)"),
    (ChangeToken("p", "c", 2),
     "ChangeToken(starter_state='p', reactor_old_state='c', index=2)"),
    (JokerToken(), "JokerToken()"),
    (SKnOState("c", "pending", (StateToken("p", 1), JokerToken()), (StateToken("p", 2),)),
     "SKnOState(sim='c', phase='pending', sending=(StateToken(state='p', index=1), "
     "JokerToken()), owed=(StateToken(state='p', index=2),))"),
    (SIDState(3, "c", "pairing", 1, "p"),
     "SIDState(my_id=3, sim='c', phase='pairing', id_other=1, state_other='p')"),
    (NamingState(2, 4), "NamingState(my_id=2, max_id=4)"),
    (KnownSizeState("naming", "c", NamingState()),
     "KnownSizeState(phase='naming', p_initial='c', naming=NamingState(my_id=1, max_id=1), "
     "sid=None)"),
    (KnownSizeState("simulating", "c", None, SIDState(1, "cs")),
     "KnownSizeState(phase='simulating', p_initial='c', naming=None, sid=SIDState(my_id=1, "
     "sim='cs', phase='available', id_other=None, state_other=None))"),
]


@pytest.mark.parametrize("value,expected", REPRS, ids=lambda value: type(value).__name__)
def test_repr_contract(value, expected):
    assert repr(value) == expected


if __name__ == "__main__":
    for case in _cases():
        print(f"    {case.id!r}: {run_case(case)!r},")
