"""The canonfn command line as a module: python -m canonfn <verb> [options]."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
