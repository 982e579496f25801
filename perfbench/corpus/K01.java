class K01 {
    int a = 1;

    void f() {
        double d = 2.5;
        int x = (int) d;
        long y = (long) x;
    }
}
