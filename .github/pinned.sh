# Sourced by the workflow's CLI steps.
# pinned SHA TIMEOUT COMMAND [ARGS]: `polyinv COMMAND [ARGS]` from this
# checkout's src, on stdin and under the timeout, must print the bytes
# whose SHA-256 is SHA
pinned_src="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/src"
pinned() {
  got=$(PYTHONPATH="$pinned_src" timeout "$2" python3 -m polyinv "${@:3}" | sha256sum | cut -d' ' -f1)
  echo "${*:3}: $got"
  test "$got" = "$1"
}
