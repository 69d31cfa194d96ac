"""Check the SHA-256 of every piece of a certificate bundle against its pin.

Usage: python .github/scripts/check_bundle_digests.py WIDTH BUNDLE_DIR

WIDTH is the --width the bundle was certified at, 0.02 or 0.01, each with
--truncate-r5 10.  A digest is of json.dumps of the piece without
stats.wall_seconds.  The check fails, naming the pieces, when a digest
differs from its pin or a piece is missing or extra.
"""

import hashlib, json, pathlib, sys

PINS = {
    "0.02": {
        "J1": "75970726228ac1e3dea7423edd495cd44107d638823dd1f38ee467bd623cb54c",
        "J2": "816217dda092206a7a1befe17a91af358451a8dfbee563570c522469f8930c33",
        "J3": "57613b15302d5855e183a41c938b0c3e17c711fef37a67a884e75c437a2f717c",
        "J4": "8c4257b29cbcef8d27bb5f023b30230e1d790137e3e78b29704f9da446687440",
        "J5": "0ab0ad60e6753866569e9f525547762031c49d92fc7b0be633f4afe919fd8b85",
        "J6": "590aa5ae9747220314026154e81d2a037c8f79179d25bb0d2061e6e03770ebf8",
        "J7": "2cecc559baf83ac7ab453c27e659ea17d673efb3314e34e0c1b22ae175a2756d",
        "J8": "1b89adedfd18142446d736defd4843b2324112538862c9078c4cae6ef4ef0d4a",
        "J9": "7cd4af7e2caf4fb54732a6121351e98543780936febf5a8f53301ac432a8a179",
        "J10": "e4ef2d5eb5e0b39f612b5b877bf06fc7538da3525922d5a9533cfef70ee68074",
        "J11": "ae156b5ff2668676c8124390f1440b06257db3049b53eec73a40c20398ad6b3e",
        "J12": "e87253fce6536e73d1474434870a65945e0c124b98f4a37be774fcee3e7bb471",
        "J13": "7d0bbd07675504010baa8d9e9dacb6f6475ea009059fb3a98d9d3c93f00a9cb9",
        "J14": "66df110677c8dc3ee177a2b64a74ea895616641d02009bb5d59f881065010358",
        "J15": "82b64b1ee04820e1c15e7ad9ec0a5cd4c6c6ca10d3eebbc8827e280916b1c363",
        "J16": "211f46a79e20b3709a8d37251c81e07f9ac88fdc5efdbf3a094e00375c31d6d3",
        "local": "4cfebdbc2b4ff9d99e6266ab8f694f1b088660d99e8dbb7d59ea5fcfb34aa718",
    },
    "0.01": {
        "J1": "40ef05ecfe14f192edde19e877b7a9949490c8e718a4d5c9b0fbddd6f04f96e0",
        "J2": "d1951336e8c43d3675a1ce424195588058b9d4aef45ee2a32618eaf4722b673d",
        "J3": "536d6d4ad3a780c3dac55221a23476c4566cb0d60e52c06bf5f36e1b5374fb4e",
        "J4": "58e45eae22b60cebd542c0664798bd8b48886bcd3242157e802482c1b9ad822f",
        "J5": "18226fb004232e3b1c3067d01fe614bf5cbd9fe44e732552641a2dbd816375bf",
        "J6": "cf297da3dc7d716af219223af4a33ebe11a0b06b282513e16ba6230ef5c75c23",
        "J7": "1b98ac5de3baa3446f9ecac2b571731c3990e388c853c954776ecd2a43af919d",
        "J8": "6bcf2a87bea59de764a3457cee11d70617922a0a0019dab498f319bb3e9f0353",
        "J9": "aa3c17c6b48295bca01e0a321874bd273178b1f6f73a3ebcf2ee496adc447c42",
        "J10": "fb50dcca4587f3310f7f974aebba5c3827f6d7dffd9ceb193a8c63f6ae4403aa",
        "J11": "4a9807a2aebe0832fb5cca73af688237c6a2bfe8d66f53484a13bdba5cb6f4e8",
        "J12": "8bc738bc66d44b74783305a8f1c3217b11b0535ba9359746677adfb85c4ba85d",
        "J13": "c846db0a63d30970367d4fc7ac35e34f793d08cae75bd58a47f4aa8a5f7d09b1",
        "J14": "cdc532ab995645a908e9546d55df428e5a4c18d2727b4ab46213d6ab6fd49853",
        "J15": "847a4a9bf007229e1cbf5a41549b75197c7f58eeba86438b7b28cbbb2ffc3350",
        "J16": "fb623a812a509a3e67e27943b0c6919f29335fbebc9fedd2437375596dae9258",
        "local": "4cfebdbc2b4ff9d99e6266ab8f694f1b088660d99e8dbb7d59ea5fcfb34aa718",
    },
}
width, d = sys.argv[1], pathlib.Path(sys.argv[2])
got = {}
for path in sorted(d.glob("J*.json")) + [d / "local.json"]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.get("stats", {}).pop("wall_seconds", None)
    got[path.stem] = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
pins = PINS[width]
changed = sorted(set(pins) ^ set(got) | {k for k in pins if got.get(k) != pins[k]})
assert not changed, f"pieces that differ from their width-{width} pins: {changed}"
print(f"{len(got)} pieces equal their width-{width} pins")
