"""One module per subcommand of the command line: its handler,
run(config) -> exit code, and the helpers only it reads.

cli.run imports the module of the subcommand a run names, and with it
the numerical layers that command reads, so a child compiles and loads
no other command.
"""
