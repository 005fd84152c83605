"""Golden outputs of the command line.

Every subcommand is called with every ``--format`` it accepts, on small
instances, together with the documented error paths.  Each call pins its
exit code, the sha256 of its stdout and its stderr in full, so a change
to how the CLI is wired or rendered can be checked byte for byte.  The
parser surface (help text and defaults) is pinned separately.

An entry changes only with a deliberate change of output; recompute it
by running the call and reading the output before replacing the hash.
"""

import hashlib

import pytest

from modmckay import cli
from modmckay.cli import main

ZERO_40 = ",".join(["0"] * 39)
STEINBERG_40_11 = ",".join(["10"] * 39)
# A case's test ID is its argv with these weights named, so that every ID
# stays short enough to read in a listing.
NAMES = {ZERO_40: "zero", STEINBERG_40_11: "St"}

# (argv, exit code, sha256 of stdout, stderr)
GOLDEN = [
    ('f --n 5 --weight 1,0,0,0', 0, '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865', ''),
    ('f --weight 3,0,2', 0, '2e6d31a5983a91251bfae5aefa1c0a19d8ba3cf601d0e8a706b4cfa9661a6b8a', ''),
    ('coeffs --weight 1,0,0,0', 0, 'b667a5c10355597c8b07af7d5bfd92695b2da5d3e85b195db77c39c45fcf9737', ''),
    ('coeffs --weight 2,1 --format json', 0, 'ce72d4dbb31841ac1483b56a78af2e50901cd11b54543a93620a02a9075385ae', ''),
    ('lr-neighbors --weight 1,1', 0, '3adee444334b8fa82ac1ee8596fe359067fe3517a5198ac53594d48e3cdab577', ''),
    ('lr-neighbors --weight 1,1 --format json', 0, '610bdfc5033e64a40d93ecf3fae17bd3cdd2f52be315e6bd5a774052ba00f42e', ''),
    ('lr-neighbors --weight 1,1 --format dot', 0, '4b069cca764d79043d6fbb802a581b8b11222128597e54aaa37811a559adcdb4', ''),
    ('lr-neighbors --weight 0,0,0 --format dot', 0, 'af591cbccf46b439b795aa26367957278e902e872285331272c884453421e2e5', ''),
    ('canonical-path --n 3 --p 3', 0, '4e122962ef7d3c045d2435bfbd528a4db1b813b92f260308bbd8ea175bbc18f7', ''),
    ('canonical-path --n 3 --p 3 --format json', 0, 'e836407c505066f2651346735bf8cead77b175e1f7981b8e2e1ebf0de0510020', ''),
    ('canonical-path --n 3 --p 3 --format dot', 0, '80c6aba052ac314d0c3ee2cf976bea0bd7166ef85ce80290273eb44284af4180', ''),
    ('canonical-path --n 4 --p 2 --format dot', 0, '96a98b36fe1295007048e03701ffd1f298ec96bee06464e9aee03e3b7899d3f8', ''),
    ('char0-dist --from 0,0 --to 2,2 --budget 10', 0, '06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7', ''),
    ('char0-dist --from 0,0 --to 2,2 --budget 10 --format json', 0, '1e1905dd52ead56ad51a06b102abc390a620e2119389b1f1ca9f19591e6932d7', ''),
    ('char0-dist --from 0,0 --to 2,2 --budget 3', 0, 'b9edd32840b50f7b88a31dd08a823c915dd47836d57308ce024ccd5c43f767ab', ''),
    ('char0-dist --from 0,0 --to 2,2 --budget 3 --format json', 0, '86a05e431b12643c42fa684e1605f6cb4ace7b838f3ccba26c0573fb7b3f384b', ''),
    ('conormal --p 2 --weight 1,1', 0, '3ba6dc33b54dcab83480890c95a4ee332fba913b5d12c1a03ec054d7d5594336', ''),
    ('conormal --p 3 --weight 2,1,0 --format json', 0, 'b554d9ff64593b001b1d046b4b564ecda29311f9d5817e7fc6fba11424871118', ''),
    ('conormal --p 5 --weight 0,0', 0, 'c1488289ea09d50237ed8fafc7ff285da1f7b3fae682852a81bcb961791e9831', ''),
    ('moves --p 3 --weight 1,0', 0, 'b3460d1d053368d55c5edeab06df970c2ee0d7f6fb9173e66d31accdb5d4ccf0', ''),
    ('moves --p 3 --weight 0,0,1 --format json', 0, 'a017c6803d8d57ddda2a876072c61ea5d6c76423a6f100086ed9e071faec6b71', ''),
    ('moves --p 5 --weight 0,0', 0, '69f6795306d462cb267108967ded34b2bd03bd91c0087b8cacd93e3f67bd6386', ''),
    # A prime of 19 digits: the primality check and the moves take no time.
    ('moves --p 1000000000000000003 --weight 1', 0, '7e230532e5b3dab83079a465b70efe52af9796ec543f798f304da357bebd7643', ''),
    ('validate --p 3 --from 2,0 --to 1,0', 0, '20800c05062455d2e46847d28e89c70a3bf61efd461df5f345877a3744948d42', ''),
    ('validate --p 3 --from 2,0 --to 1,0 --format json', 0, '716cda556764a74f8f6700f70c13daf1f99f16090f19ad35339526e0bf4dd029', ''),
    ('validate --p 3 --from 0,1 --to 0,0 --format json', 0, 'cc3068910e3fb851388dd2e9a82554e1cff4b3d5b7114f33bc8d4c73e05bb39d', ''),
    ('validate --p 3 --from 1,0 --to 1,1', 1, '9df02b4f954635ca08d916447b20c0bf02817cbae4b11b8066c1ca081763717b', ''),
    ('validate --p 3 --from 1,0 --to 1,1 --format json', 1, '84ba4f2c60f1cacae3829f768e8e10630dbd9f68f190916391de2924243b252c', ''),
    ('plan --p 3 --from 2 --to 1', 0, '95a75394ac79e9e6985788c911e7e01503830b062243f31e92f366b77f76a001', ''),
    ('plan --p 3 --from 0,0,0 --to 2,1,2', 0, 'b3ed91e3375fb212b2aaacb72deeb20e4cf81790ceaa8048db1c7ee257dff08f', ''),
    ('plan --p 3 --from 0,0,0 --to 2,1,2 --format json', 0, '3d145bd6c90185d9563c166f0b4cfd8e896f99bc3d06289cb8619a7042aadfde', ''),
    ('plan --p 3 --from 0,0,0 --to 2,1,2 --format dot', 0, 'b6015ba0cc99a159df7a37c2c84e868ec6abf438a6842761f73842279d6fb2fc', ''),
    ('plan --p 3 --from 1,0 --to 2,0 --format dot', 0, '447b8c395e66a1a0b3676425f7d6f9f15db28a4f78abfa11473a81b9c7e2d2d1', ''),
    ('plan --p 5 --from 3,1 --to 3,1 --format dot', 0, 'bdde5c326c236e7f503277be2c1b31939069ba978f740c17830ae797ff6780a8', ''),
    ('plan --p 5 --from 3,1 --to 3,1 --format json', 0, '9682774794731943a5175b8bed42f0d8f189c3882053f1e13fdb0a422fc41e37', ''),
    (f"plan --n 40 --p 11 --from {ZERO_40} --to {STEINBERG_40_11} --format json", 0, '4d482adc0c952bc06d134742482709d919a3c588b54fd890048a7c5e9b5cc8fb', ''),
    # A 19-digit prime: a one-move plan renders, and a walk of about p moves is
    # refused before it is built.
    ('plan --p 1000000000000000003 --from 1 --to 2', 0, '35f6940877a69cf8f2c7d36a4cfe32bfcfd52432840d3808751fb4eb0e2797a8', ''),
    ('plan --p 1000000000000000003 --from 2 --to 1 --format json', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: a walk of 1000000000000000001 moves at n = 2 has 1000000000000000001 entries to render, more than 10000000\n'),
    ('canonical-path --n 2 --p 1000000000000000003', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: a walk of 1000000000000000002 moves at n = 2 has 1000000000000000002 entries to render, more than 10000000\n'),
    ('graph --n 3 --p 3', 0, '79f32d29bf3165a0768bb8571195b8ececb1a21297a0afb9d81d6ff06c9ceb2b', ''),
    ('graph --n 3 --p 3 --format json', 0, 'edec149265b5fa511f02961f69580d16a9a0a65b124fbf4a9cf93e61ebb350a6', ''),
    ('graph --n 3 --p 3 --format dot', 0, 'd70766ecf604f8f3c8ecd07c9ff9500634fb46f9de3b9251b7d5da567e793840', ''),
    ('graph --n 2 --p 2 --format dot', 0, 'f44b465d2900c6e212a3bc5107fe85174e8655d5e4293f30fc0d2b240e57dd01', ''),
    ('bfs --n 3 --p 3 --from 1,2', 0, 'f5fae9b14d9cd63706bb4afbcc2ba8410ff3d6ba4725bbebcdba98b180ffabe6', ''),
    ('bfs --n 3 --p 3 --from 1,2 --format json', 0, '6f2564381b77558cafbd003f22018ce505c019fe12390730bbc6fab2ca5c020c', ''),
    ('bfs --n 3 --p 3 --format csv', 0, '5e7e001e85522933fc623c6cc5d514d37a6f5cb3d42c2ed2beba886ced65d4b5', ''),
    ('bfs --n 3 --p 3 --from 1,2 --format csv', 0, '5e7e001e85522933fc623c6cc5d514d37a6f5cb3d42c2ed2beba886ced65d4b5', ''),
    ('diameter --n 3 --p 3', 0, '06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7', ''),
    ('diameter --n 4 --p 5 --format json', 0, 'b6e6bc8e867f21c41785cb3ff009bce01f4f953f19bc9984759d3435cc725495', ''),
    ('diameter --n 2 --p 4 --allow-nonprime --format json', 0, '376598a5a7be68dfcbba747e84123202f8a2b7b7eafa9576f3f94c539bb0b17b', ''),
    ('verify --n 3 --p 3', 0, '0eb42871fecce28905849a17676985088357a140da7e53edbd25b819d1c94148', ''),
    ('verify --n 3 --p 3 --format json', 0, 'c59e494184b84012b9d7f93437bb53a07bcb1a76b526e88dc439eaa704c1c965', ''),
    ('verify --n 2 --p 2', 0, '165beab348965926dbfa10a7f3bab5942c11ac2db6fb4028aab6e73921101ba6', ''),
    ('verify --n 3 --p 17 --format json', 0, 'a8c453dcc2a0bd9bd253234cd7d90bff5189a3446f9da14f7def7c0ecd8671fb', ''),
    ('verify --n 3 --p 37 --format json', 0, '01df1f62a50c91cf639e45ddbb1281e00e3acb476932d1edb0e2c0c375be75f6', ''),
    ('diameter --p 3', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: diameter needs --n\n'),
    ('canonical-path --p 3', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: canonical-path needs --n\n'),
    ('graph --p 3 --format json', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: graph needs --n\n'),
    ('bfs --p 3 --format csv', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: bfs needs --n\n'),
    ('verify --p 3 --format json', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: verify needs --n\n'),
    ('diameter --n 1 --p 3', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: need n >= 2, got 1\n'),
    ('diameter --n 2 --p 4', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: p = 4 is not prime; pass --allow-nonprime to experiment anyway\n'),
    ('plan --p 4 --from 0 --to 1 --format json', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: p = 4 is not prime; pass --allow-nonprime to experiment anyway\n'),
    ('moves --p 1 --weight 0', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: need p >= 2, got 1\n'),
    ('canonical-path --n 3 --p 9 --format dot', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: p = 9 is not prime; pass --allow-nonprime to experiment anyway\n'),
    ('f --weight 1,0,x', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: not a comma-separated integer list: '1,0,x'\n"),
    ('coeffs --weight 1,,0 --format json', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: not a comma-separated integer list: '1,,0'\n"),
    ('char0-dist --from 0,a --to 1,1 --budget 3', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: not a comma-separated integer list: '0,a'\n"),
    ('f --n 5 --weight 1,0', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: --n 5 expects 4 entries, got weight '1,0'\n"),
    ('plan --n 3 --p 3 --from 0,0,0 --to 1,1,1', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: --n 3 expects 2 entries, got weight '0,0,0'\n"),
    ('moves --p 3 --weight 3,0', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: weight is not 3-restricted: (3, 0)\n'),
    ('conormal --p 3 --weight 0,-1 --format json', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: weight entries must be nonnegative integers: (0, -1)\n'),
    ('plan --p 3 --from 3 --to 0 --format json', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: weight is not 3-restricted: (3,)\n'),
    ('validate --p 3 --from 0,0 --to 0,3', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: weight is not 3-restricted: (0, 3)\n'),
    ('validate --p 3 --from 0,0 --to 0', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: rank mismatch: 3 vs 2\n'),
    ('validate --p 3 --from 0,0 --to 0 --format json', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: rank mismatch: 3 vs 2\n'),
    ('plan --p 3 --from 0,0 --to 0', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: rank mismatch: 3 vs 2\n'),
    ('char0-dist --from 0,0 --to 0 --budget 3 --format json', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: rank mismatch: 3 vs 2\n'),
    ('char0-dist --from 0,0 --to 1,1 --budget -1', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: budget must be >= 0\n'),
    ('graph --n 12 --p 7 --budget 100', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: 1977326743 = 7^11 vertices exceed the budget of 100\n'),
    ('bfs --n 12 --p 7 --budget 100 --format csv', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: 1977326743 = 7^11 vertices exceed the budget of 100\n'),
    ('diameter --n 12 --p 7 --budget 100 --format json', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: 1977326743 = 7^11 vertices exceed the budget of 100\n'),
    ('verify --n 12 --p 7 --budget 100', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: 1977326743 = 7^11 vertices exceed the budget of 100\n'),
    ('bfs --n 3 --p 3', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: bfs needs --from (or --format csv for the full matrix)\n'),
    ('bfs --n 3 --p 3 --from 1 --format json', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: --n 3 expects 2 entries, got weight '1'\n"),
    ('bfs --n 3 --p 3 --from 5,5', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: (5, 5) is not a vertex of this graph\n'),
    ('bfs --n 2 --p 3 --format csv --from x', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: not a comma-separated integer list: 'x'\n"),
    ('bfs --n 3 --p 3 --from 1 --format csv', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', "error: --n 3 expects 2 entries, got weight '1'\n"),
]

# Calls that argparse itself refuses, before any handler runs.
REJECTED = [
    "frobnicate",
    "f --format json",
    "f --n 3",
    "moves --weight 1,0",
    "graph --n 3 --p 3 --format csv",
    "diameter --n 3 --p 3 --format xml",
    "bfs --n 3 --p 3 --to 0,0",
    "verify --n x --p 3",
    "char0-dist --from 0,0 --to 1,1",
]

# A minimal call of each subcommand; its parsed namespace pins every default.
MINIMAL = {
    "f": "--weight 1",
    "coeffs": "--weight 1",
    "lr-neighbors": "--weight 1",
    "canonical-path": "--p 3",
    "char0-dist": "--from 0 --to 1 --budget 3",
    "conormal": "--p 3 --weight 1",
    "moves": "--p 3 --weight 1",
    "validate": "--p 3 --from 0 --to 1",
    "plan": "--p 3 --from 0 --to 1",
    "graph": "--p 3",
    "bfs": "--p 3",
    "diameter": "--p 3",
    "verify": "--p 3",
}
COMMANDS = list(MINIMAL)

# sha256 of ``modmckay [COMMAND] --help`` at 80 columns.
HELP = {
    '': '93583a1da5671fbc033bce0d3c53999fa5b89643767523624052635fe2bde5af',
    'f': '0ec9ae79453d96949e8dd1b5a4692d646a4d70451a55e07eddc52b454cf7b731',
    'coeffs': '216f8fa76b60244977e342636f9e671a3140730f85781fb03b20dc31506a5d14',
    'lr-neighbors': '2afe13fb5d31e0c63c2691fc2023afe2e464c94e264021e53ac276e2b3e60b41',
    'canonical-path': '8af24b62d0880e802e4bf7abac2869c9d61056529cde54f876a52e609b28955d',
    'char0-dist': 'aece9568130bad02a9f35855c347b1213f51ab7a163b30f1229796fe3f0f19ae',
    'conormal': 'b24e8a34f53e0c6df92dbc5bed30c0d90e6d4ba84ff454c8caaf59707f83243a',
    'moves': 'fc21a73f83d2e23fe23f3f55252c21f6f250a5fe92364fc505d2a0ee051adf9a',
    'validate': 'b89c4f05f3e8eb9e2ffa9517e79cc324ff439cf60c733dbf22225f63ead4831f',
    'plan': 'd5551b43dfb7fb9383bdca90eac5e633d269585a2ab3ea383495bcb849bb2fa7',
    'graph': '43ce9de1919de4ac494f7c1e437a8bbd690b96b5f47e4aefba898238da5722b6',
    'bfs': '3ac453929e3966bccacc0932a65da507bf95af563c58eeb26fa4350b9250ee4d',
    'diameter': '7a4ed6db2cf127a38d025e80bca407a3bbf94e2a9d82af6269c8c7d436e46e50',
    'verify': 'eff6f19ab0d6e502368f135de47006c4ff9ceb3f4f80118e6a6a88dfb8df3841',
}

DEFAULTS = {
    'f': {'command': 'f', 'n': None, 'weight': '1', 'output': None},
    'coeffs': {'command': 'coeffs', 'n': None, 'weight': '1', 'format': 'text', 'output': None},
    'lr-neighbors': {'command': 'lr-neighbors', 'n': None, 'weight': '1', 'format': 'text', 'output': None},
    'canonical-path': {'command': 'canonical-path', 'n': None, 'p': 3, 'allow_nonprime': False, 'format': 'text', 'output': None},
    'char0-dist': {'command': 'char0-dist', 'n': None, 'src': '0', 'tgt': '1', 'format': 'text', 'budget': 3, 'output': None},
    'conormal': {'command': 'conormal', 'n': None, 'p': 3, 'allow_nonprime': False, 'weight': '1', 'format': 'text', 'output': None},
    'moves': {'command': 'moves', 'n': None, 'p': 3, 'allow_nonprime': False, 'weight': '1', 'format': 'text', 'output': None},
    'validate': {'command': 'validate', 'n': None, 'p': 3, 'allow_nonprime': False, 'src': '0', 'tgt': '1', 'format': 'text', 'output': None},
    'plan': {'command': 'plan', 'n': None, 'p': 3, 'allow_nonprime': False, 'src': '0', 'tgt': '1', 'format': 'text', 'output': None},
    'graph': {'command': 'graph', 'n': None, 'p': 3, 'allow_nonprime': False, 'format': 'text', 'budget': 1000000, 'output': None},
    'bfs': {'command': 'bfs', 'n': None, 'p': 3, 'allow_nonprime': False, 'src': None, 'format': 'text', 'budget': 1000000, 'output': None},
    'diameter': {'command': 'diameter', 'n': None, 'p': 3, 'allow_nonprime': False, 'format': 'text', 'budget': 1000000, 'output': None},
    'verify': {'command': 'verify', 'n': None, 'p': 3, 'allow_nonprime': False, 'format': 'text', 'budget': 1000000, 'output': None},
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _label(argv: str) -> str:
    return " ".join(NAMES.get(word, word) for word in argv.split())


def test_labels_are_short_and_distinct():
    labels = [_label(g[0]) for g in GOLDEN]
    assert len(set(labels)) == len(labels)
    assert max(map(len, labels)) <= 60


@pytest.mark.parametrize("argv, code, out_sha, err", GOLDEN, ids=[_label(g[0]) for g in GOLDEN])
def test_golden_output(capsys, argv, code, out_sha, err):
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    assert (_sha(captured.out), captured.err) == (out_sha, err)


def test_output_file_holds_stdout(capsys, tmp_path):
    target = tmp_path / "out.json"
    argv = "diameter --n 4 --p 5 --format json"
    assert main(argv.split() + ["--output", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    expected = next(g[2] for g in GOLDEN if g[0] == argv)
    assert _sha(target.read_text(encoding="utf-8")) == expected


@pytest.mark.parametrize("argv", REJECTED)
def test_parser_rejects(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and "error:" in captured.err


@pytest.mark.parametrize("command", [""] + COMMANDS)
def test_help_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(([command] if command else []) + ["--help"])
    assert exc.value.code == 0
    assert _sha(capsys.readouterr().out) == HELP[command]


@pytest.mark.parametrize("command", COMMANDS)
def test_defaults(command):
    argv = [command] + MINIMAL[command].split()
    assert vars(cli._build_parser().parse_args(argv)) == DEFAULTS[command]
