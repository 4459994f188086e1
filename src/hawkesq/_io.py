"""The result-file formats that a rerun from a manifest reproduces bitwise."""
import json


def write_json(path, payload) -> None:
    """Indent 2, sorted keys, trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, columns, rows) -> None:
    """A header line, then each row with every value as %.17g; rows stream."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(line % tuple(row))
