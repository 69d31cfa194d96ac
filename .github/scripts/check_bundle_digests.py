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
        "J1": "bcc49732496d8732fdc45e42a25a63118c5c58e37b1ab584a4ade589aba8e6cb",
        "J2": "d8dca6994760f2a104a60d9ac87838eac7b5cd78fcfc97da92272347428a5009",
        "J3": "8d63b7f9659dfc48bd91d6aa2e5951fa50aa1285388a2294997db34749223bbd",
        "J4": "6b42b293d6b2f1111b84ce9adb6d1326be4eeb0ee3643babf0d86bdc99824b01",
        "J5": "12335a8e9ba478e82f1182a9ce7ce063eb0a4dab9c43139790914c6b8e12d28e",
        "J6": "0ba27b53b4f805d583612e40bc7f535b150d8267e93d0f87ecb56b5c0f9a8e71",
        "J7": "00366aecf89ffa569d927983e7695d2989ca4645c6e47ff884ea6a837a6f5725",
        "J8": "703cd45764e6e5f34616fcd55579adf70fff9fc3223e51007bbf08160907c5c9",
        "J9": "670fcbebb0be5d709b0822bdacdafc76403036f7b801920985b0847813d386c2",
        "J10": "587a506f8c5ec0eedb0dc03f5a8740bd7247cb9aa549c745cd669c7e740b4fcf",
        "J11": "8d09eac661039f402e2972bf65d3caec8059ba5ae57076206f3d80ed2503fc81",
        "J12": "b0be37b79fb1d7d638ddd5f4f15eba77b26d175c0068a99fea1d970ec0c5b2bc",
        "J13": "fc4a549f8f2f2228caaf5be8fd3b485b1d77cbb2eec562d623899af683712e8d",
        "J14": "41903dc779ec6ccc988b6c72cef8f7033111942b7274dbf122b29428a8763955",
        "J15": "29ecf83931e2ac6e1d3fe1cbbc249c8c792d001c5bddc0de796f9f4f50fc5ea2",
        "J16": "0ed1718d40bc3061bac1369db9b8dcf4609fc037b82f0b80f6563399db94a0f1",
        "local": "4cfebdbc2b4ff9d99e6266ab8f694f1b088660d99e8dbb7d59ea5fcfb34aa718",
    },
    "0.01": {
        "J1": "c95d2e6fc55fcd32825b0b381dcc2349785294e277fa5bb3f3896164c80f43a8",
        "J2": "efd557861bf7eb6281a62105c69c249958de5af6dad1e96bf93de6df4d632d57",
        "J3": "ae3fcde29f9d3ee0e2f95592c6806d62625358d0b2905df4b05000256ea5af85",
        "J4": "aff1b0f7ad8ae48dce0eb88400ad9deab5ed25bf942406b532c6009b78c4de54",
        "J5": "deb36c61ac2f3e3d709a91693f90498a7ac0a2fba7426a2d2d1c344dc97bca23",
        "J6": "e20d38c1add39bc134dddca03671e3b1e2c278951944ca346a73151f8ddf9724",
        "J7": "a60d56bfb8a003f8299ecf28bf56e0063d9b432ffa981e7fbf777934255ff940",
        "J8": "976f5279147661d186ae3e99e3615287385200928f2fd3443eb00baed2f4f85a",
        "J9": "7e5ebf4409feb3b081db5eea048de9c0ece96631e2d48c18218339fe2b3386c5",
        "J10": "dab12c1cb0d5f26cb299365c97a180db83fdb1ccadde72fab21875724af4e96d",
        "J11": "c17a67270dba1a1c3a5eb83cb63ab56155f609aa5007508ac13fee756e997d94",
        "J12": "b3e91c4c4640490d8df36a01870af883e240b7d4b221c1698115dfb2ec5f9ccb",
        "J13": "292d90eab79856ea2be9452dbe9be72cd381e504253929c0b612823dddfe8ede",
        "J14": "9407f70acdb50f733f2f6736fe294784bcd2faccfb968c189b09629e9a671c39",
        "J15": "69cc737363043d1a2101dd2285d0a194c6f04862d68e8c0676bff697db7c381a",
        "J16": "ad80226aafb34fb92bc562d4ae02fbfc40949bda04b4750c265443c9db10da54",
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
