"""PD text writer shared by the tests: the inverse of ``diagram.parse_pd_text``."""


def format_pd_text(pd) -> str:
    return "\n".join("X " + " ".join(map(str, t)) for t in pd.crossings) + "\n"
